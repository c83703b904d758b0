package bench

import (
	"bytes"
	"context"
	"testing"

	"prestores/internal/checkpoint"
	"prestores/internal/scenario"
)

// TestSpecIDsRegistered pins which named experiments are spec-driven.
func TestSpecIDsRegistered(t *testing.T) {
	want := []string{"ablate-dir", "ablate-drain", "ablate-llc", "ablate-pmembuf",
		"ext-cxlssd", "ext-prefetch", "ext-seqlog", "fig10", "fig11", "fig12", "fig13", "fig14",
		"fig3", "fig5", "fig7", "fig8", "kv-threads", "skipvsclean", "x9", "ycsb-mixes"}
	got := SpecIDs()
	if len(got) != len(want) {
		t.Fatalf("SpecIDs() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SpecIDs() = %v, want %v", got, want)
		}
		if _, ok := Lookup(want[i]); !ok {
			t.Errorf("spec %s has no registered experiment", want[i])
		}
	}
}

// TestCodeExperiments pins the experiments that stay hand-written
// (each says where it registers why a spec cannot express it); every
// other registered experiment must be spec-driven.
func TestCodeExperiments(t *testing.T) {
	code := map[string]bool{"fig9": true, "listing3": true, "overhead": true, "table1": true, "table2": true}
	for id := range code {
		if _, ok := Lookup(id); !ok {
			t.Errorf("code experiment %s is not registered", id)
		}
	}
	for _, e := range All() {
		if _, isSpec := SpecFor(e.ID); isSpec == code[e.ID] {
			t.Errorf("experiment %s: spec-driven = %v, want %v", e.ID, isSpec, !code[e.ID])
		}
	}
}

// TestDumpedSpecByteIdentical runs every spec-driven experiment both
// through its registry entry and through RunSpec on its dumped
// (canonical JSON, re-decoded) spec, and requires byte-identical
// output — the acceptance oracle for the declarative refactor. All runs
// share one checkpoint view, so each warm state loads once (the golden
// guard and TestWarmForkByteIdentity pin warm == cold).
func TestDumpedSpecByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	store, err := checkpoint.NewStore(0, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := checkpoint.NewContext(context.Background(), store.View())
	for _, id := range SpecIDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			spec, ok := SpecFor(id)
			if !ok {
				t.Fatalf("SpecFor(%q) missing", id)
			}
			data, err := spec.Canonical()
			if err != nil {
				t.Fatalf("canonical: %v", err)
			}
			decoded, err := scenario.Decode(data)
			if err != nil {
				t.Fatalf("decode dumped spec: %v\njson: %s", err, data)
			}
			e, _ := Lookup(id)
			var legacy, viaSpec bytes.Buffer
			if err := RunOne(ctx, &legacy, e, true); err != nil {
				t.Fatalf("RunOne: %v", err)
			}
			if err := RunSpec(ctx, &viaSpec, decoded, true); err != nil {
				t.Fatalf("RunSpec: %v", err)
			}
			if legacy.String() != viaSpec.String() {
				t.Errorf("output differs:\n--- registry ---\n%s\n--- dumped spec ---\n%s",
					legacy.String(), viaSpec.String())
			}
		})
	}
}
