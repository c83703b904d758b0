package cache

import (
	"bytes"
	"strings"
	"testing"

	"prestores/internal/snap"
)

// TestRestoreRejectsUnrunnable corrupts a snapshot's per-set metadata
// in the two ways a later access would trip over: a way predictor past
// the last way indexes out of the set, and a valid count that differs
// from the valid tags makes fill skip the free-way scan or overfill. A
// count beyond the ways is rejected before it is narrowed to the set's
// 32-bit field, where 2^32+1 would pass for 1.
func TestRestoreRejectsUnrunnable(t *testing.T) {
	src := smallCache(LRU)
	src.Access(0, true)
	w := snap.NewWriter()
	src.SnapshotState(w)
	data := w.Finish()
	// Set 0's nvalid, plru and mru follow the section tag, geometry,
	// clock, rng and stats.
	set0 := 4 + 12*8
	cases := map[string]struct {
		off  int
		v    byte
		want string
	}{
		"mru past the ways":   {set0 + 16, 4, "predicts way 4 of 4"},
		"nvalid too high":     {set0, 2, "counts 2 valid ways but holds 1"},
		"nvalid of empty set": {set0 + 17, 1, "counts 1 valid ways but holds 0"}, // set 1
		"nvalid past 32 bits": {set0 + 4, 1, "counts 4294967297 valid ways of 4"},
	}
	for name, tc := range cases {
		bad := bytes.Clone(data)
		bad[tc.off] = tc.v
		err := smallCache(LRU).RestoreState(snap.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v; want %q", name, err, tc.want)
		}
	}
}
