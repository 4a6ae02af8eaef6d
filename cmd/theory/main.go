// Command theory regenerates the analytical artifacts of §6: the Fig. 6
// comparison of search spaces and intervention bounds between Causal
// Path Discovery (CPD) and plain Group Testing (GT) on the symmetric
// AC-DAG, and the Example 3 search-space numbers.
//
// Usage:
//
//	theory [-J 3] [-B 4] [-n 5] [-D 4] [-S1 2] [-S2 2]
package main

import (
	"flag"
	"fmt"

	"aid/internal/grouptest"
	"aid/internal/theory"
)

func main() {
	var (
		j  = flag.Int("J", 3, "junctions in the symmetric AC-DAG")
		b  = flag.Int("B", 4, "branches per junction")
		n  = flag.Int("n", 5, "predicates per branch")
		d  = flag.Int("D", 4, "causal predicates")
		s1 = flag.Int("S1", 2, "predicates discarded per intervention (Theorem 2)")
		s2 = flag.Int("S2", 2, "predicates discarded per discovery (Theorem 3)")
	)
	flag.Parse()

	total := *j * *b * *n
	fmt.Printf("Figure 6 — symmetric AC-DAG: J=%d junctions × B=%d branches × n=%d predicates (N=%d, D=%d)\n\n",
		*j, *b, *n, total, *d)
	rows := theory.Figure6(*j, *b, *n, *d, *s1, *s2)
	fmt.Printf("%-6s %18s %14s %14s\n", "Model", "log2(SearchSpace)", "LowerBound", "UpperBound")
	for _, r := range rows {
		fmt.Printf("%-6s %18.2f %14.2f %14.2f\n", r.Model, r.SearchSpaceLog2, r.LowerBound, r.UpperBound)
	}

	fmt.Println("\nExample 3 — Fig. 5(a): one junction, two branches of three predicates:")
	fmt.Printf("  GT search space:  %s (= 2^6)\n", theory.SymmetricGTSpace(1, 2, 3))
	fmt.Printf("  CPD search space: %s (= 2·(2^3−1)+1)\n", theory.SymmetricCPDSpace(1, 2, 3))

	fmt.Println("\nLemma 1 — expansion rules on two 3-chains:")
	fmt.Printf("  horizontal (parallel):  %s\n",
		theory.HorizontalExpand(theory.ChainSpace(3), theory.ChainSpace(3)))
	fmt.Printf("  vertical (sequential):  %s\n",
		theory.VerticalExpand(theory.ChainSpace(3), theory.ChainSpace(3)))

	fmt.Println("\nBounds as functions of pruning rates (N =", total, ", D =", *d, "):")
	fmt.Printf("  GT lower bound  log2 C(N,D):            %.2f\n", theory.GTLowerBound(total, *d))
	for _, s := range []int{1, 2, 4, 8} {
		fmt.Printf("  CPD lower bound (Thm 2, S1=%d):          %.2f\n", s, theory.CPDLowerBound(total, *d, s))
	}
	fmt.Printf("  TAGT upper bound D·⌈log2 N⌉:            %d\n", grouptest.UpperBound(total, *d))
	for _, s := range []int{1, 2, 4, 8} {
		fmt.Printf("  AID upper bound (Thm 3, S2=%d):          %.2f\n", s, theory.AIDPruningUpperBound(total, *d, s))
	}
	fmt.Printf("  AID upper bound with branch pruning:    %.2f  (J·log2 T + D·log2 NM, T=%d, NM=%d)\n",
		theory.AIDBranchUpperBound(*j, *b, *j**n, *d), *b, *j**n)
}
