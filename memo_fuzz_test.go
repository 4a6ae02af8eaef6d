package aid_test

import (
	"bytes"
	"context"
	"testing"

	"aid"
)

// FuzzImportMemo: the daemon feeds SharedScheduler.ImportMemo bytes
// read back from disk, so arbitrary bytes must never panic it, and any
// snapshot it accepts must survive a persistence round trip: exporting
// it, importing that into a fresh scheduler and exporting again yields
// the same entry count and the same bytes.
func FuzzImportMemo(f *testing.F) {
	shared := aid.NewSharedScheduler()
	p := aid.New(aid.WithCorpusSize(10, 10), aid.WithSharedScheduler(shared))
	if _, err := p.Run(context.Background(), aid.FromStudy(aid.CaseStudyByName("npgsql"))); err != nil {
		f.Fatal(err)
	}
	snap, err := shared.ExportMemo()
	if err != nil || snap == nil {
		f.Fatalf("no memo snapshot after an npgsql run: %v", err)
	}
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	for _, s := range []string{
		``, `null`, `[]`, `{}`, `[`, `[null]`, `"memo"`,
		`[{"preds":[],"obs":[]}]`,
		`[{"preds":["x"],"obs":null}]`,
		`[{"preds":["x","x"],"obs":[{"Failed":true,"Observed":{"x":true},"Confidence":0.5}]}]`,
		`[{"preds":[1],"obs":[{"Failed":"yes"}]}]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		first := aid.NewSharedScheduler()
		n, err := first.ImportMemo(data)
		if err != nil {
			return
		}
		exported, err := first.ExportMemo()
		if err != nil {
			t.Fatalf("accepted memo does not export: %v", err)
		}
		if exported == nil {
			if n != 0 {
				t.Fatalf("imported %d entries but exported none", n)
			}
			return
		}
		second := aid.NewSharedScheduler()
		n2, err := second.ImportMemo(exported)
		if err != nil {
			t.Fatalf("exported snapshot %q does not import: %v", exported, err)
		}
		again, err := second.ExportMemo()
		if err != nil {
			t.Fatal(err)
		}
		if n2 != n || !bytes.Equal(again, exported) {
			t.Fatalf("round trip is not a fixed point: %d entries %q, then %d entries %q", n, exported, n2, again)
		}
	})
}
