package predicate

import (
	"testing"
)

// TestExtractorRejectsFailedBaselines pins the enforced invariant: the
// shared baseline prefix is only sound over success baselines.
func TestExtractorRejectsFailedBaselines(t *testing.T) {
	set := benchSet(9, 10) // every third execution fails
	if _, err := NewExtractor(set.Executions, Config{DurationMargin: 4}); err == nil {
		t.Fatal("failed baseline accepted")
	}
}
