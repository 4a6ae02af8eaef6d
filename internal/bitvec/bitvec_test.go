package bitvec

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestSetHasUnsetGrow(t *testing.T) {
	var v Vec
	v.Set(3)
	v.Set(200)
	if !v.Has(3) || !v.Has(200) || v.Has(4) || v.Has(500) {
		t.Fatalf("membership wrong: %v", v)
	}
	v.Unset(3)
	v.Unset(500) // beyond length: no-op
	if v.Has(3) || !v.Has(200) {
		t.Fatal("Unset wrong")
	}
	if v.Count() != 1 {
		t.Fatalf("Count = %d", v.Count())
	}
}

func TestOnesAndRank(t *testing.T) {
	v := Ones(70)
	if v.Count() != 70 || v.Has(70) || !v.Has(69) {
		t.Fatalf("Ones(70) wrong: count=%d", v.Count())
	}
	if v.Rank(0) != 0 || v.Rank(64) != 64 || v.Rank(70) != 70 || v.Rank(1000) != 70 {
		t.Fatal("Rank wrong")
	}
	var sparse Vec
	for _, i := range []int{1, 63, 64, 129} {
		sparse.Set(i)
	}
	if sparse.Rank(64) != 2 || sparse.Rank(65) != 3 || sparse.Rank(130) != 4 {
		t.Fatal("sparse Rank wrong")
	}
}

func TestMixedLengthOps(t *testing.T) {
	var short, long Vec
	short.Set(5)
	long.Set(5)
	long.Set(100)
	if short.CountAnd(long) != 1 || long.CountAnd(short) != 1 {
		t.Fatal("CountAnd not symmetric under zero-extension")
	}
	if !short.Intersects(long) || !long.Intersects(short) {
		t.Fatal("Intersects wrong")
	}
	var got []int
	long.ForEachAnd(short, func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("ForEachAnd = %v", got)
	}
}

func TestAndEquals(t *testing.T) {
	var a, b, want Vec
	a.Set(1)
	a.Set(70)
	b.Set(1)
	b.Set(70)
	b.Set(200)
	want.Set(1)
	want.Set(70)
	if !AndEquals(a, b, want) {
		t.Fatal("AndEquals false negative")
	}
	want.Set(2)
	if AndEquals(a, b, want) {
		t.Fatal("AndEquals missed extra want bit")
	}
	want.Unset(2)
	b.Set(3)
	a.Set(3)
	if AndEquals(a, b, want) {
		t.Fatal("AndEquals missed extra intersection bit")
	}
	// Zero-length operands are empty sets.
	if !AndEquals(nil, nil, nil) || AndEquals(a, b, nil) {
		t.Fatal("nil handling wrong")
	}
}

func TestTranspose(t *testing.T) {
	rows := []Vec{New(3), New(3), New(3)}
	rows[0].SetInCap(1)
	rows[0].SetInCap(2)
	rows[2].SetInCap(0)
	tr := Transpose(rows, 3)
	if !tr[1].Has(0) || !tr[2].Has(0) || !tr[0].Has(2) || tr[0].Has(1) {
		t.Fatalf("Transpose wrong: %v", tr)
	}
}

func TestRandomizedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var v Vec
		ref := map[int]bool{}
		for op := 0; op < 200; op++ {
			i := rng.Intn(300)
			if rng.Intn(3) == 0 {
				v.Unset(i)
				delete(ref, i)
			} else {
				v.Set(i)
				ref[i] = true
			}
		}
		if v.Count() != len(ref) {
			t.Fatalf("Count = %d, want %d", v.Count(), len(ref))
		}
		n := 0
		v.ForEach(func(i int) {
			if !ref[i] {
				t.Fatalf("phantom element %d", i)
			}
			n++
		})
		if n != len(ref) {
			t.Fatalf("ForEach visited %d of %d", n, len(ref))
		}
		for i := 0; i < 300; i++ {
			if v.Has(i) != ref[i] {
				t.Fatalf("Has(%d) = %v", i, v.Has(i))
			}
			if v.Rank(i) != rankRef(ref, i) {
				t.Fatalf("Rank(%d) = %d, want %d", i, v.Rank(i), rankRef(ref, i))
			}
		}
	}
}

func rankRef(ref map[int]bool, i int) int {
	n := 0
	for k := range ref {
		if k < i {
			n++
		}
	}
	return n
}

// TestFusedOpsAgainstReference drives ClearFrom, the overlay-rewind
// primitive, against a map reference across randomized lengths and
// cut points.
func TestFusedOpsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		na := rng.Intn(300)
		var a Vec
		ra := map[int]bool{}
		for i := 0; i < na; i++ {
			if rng.Intn(3) == 0 {
				a.Set(i)
				ra[i] = true
			}
		}
		cut := rng.Intn(320)
		c := a.Clone()
		c.ClearFrom(cut)
		for i := 0; i < 320; i++ {
			want := ra[i] && i < cut
			if c.Has(i) != want {
				t.Fatalf("ClearFrom(%d).Has(%d) = %v, want %v", cut, i, c.Has(i), want)
			}
		}
	}
}
