package pmcheck

import (
	"bytes"
	"strings"
	"testing"

	"prestores/internal/sim"
	"prestores/internal/trace"
)

const pmBase = uint64(1) << 40

// record traces fn's operations on a fresh machine A into a chunked
// trace. Chunks are tiny so stores, cleans, fences and commits land in
// different chunks.
func record(fn func(c *sim.Core)) []byte {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.WriterOptions{ChunkRecords: 4})
	m := sim.MachineA()
	m.SetHook(w.Hook())
	fn(m.Core(0))
	m.SetHook(nil)
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// check streams a recorded trace through the checker.
func check(t *testing.T, data []byte, cfg Config) Result {
	t.Helper()
	cr, err := trace.NewChunkReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Check(cr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorrectProtocolPasses(t *testing.T) {
	tb := record(func(c *sim.Core) {
		c.PushFunc("txn")
		for i := uint64(0); i < 50; i++ {
			addr := pmBase + i*256
			c.Write(addr, make([]byte, 256))
			c.Prestore(addr, 256, sim.Clean) // persist
		}
		c.Fence()                 // order
		c.CAS(pmBase+1<<20, 0, 1) // commit
		c.PopFunc()
	})
	res := check(t, tb, Config{Base: pmBase, Size: 1 << 30, LineSize: 64})
	if !res.Ok() {
		t.Fatalf("correct protocol flagged: %v", res.Violations)
	}
	if res.Commits == 0 || res.StoresChecked == 0 {
		t.Fatalf("nothing checked: %+v", res)
	}
}

func TestMissingCleanFlagged(t *testing.T) {
	tb := record(func(c *sim.Core) {
		c.PushFunc("txn")
		c.Write(pmBase, make([]byte, 128))
		// Forgot the clean.
		c.CAS(pmBase+1<<20, 0, 1)
		c.PopFunc()
	})
	res := check(t, tb, Config{Base: pmBase, Size: 1 << 30, LineSize: 64})
	if res.Ok() {
		t.Fatal("missing clean not flagged")
	}
	if len(res.Violations) != 2 { // two 64B lines of the 128B store
		t.Fatalf("violations = %d, want 2", len(res.Violations))
	}
	if res.Violations[0].StoreFn != "txn" {
		t.Fatalf("violation attribution: %+v", res.Violations[0])
	}
	if !strings.Contains(res.Violations[0].String(), "txn") {
		t.Fatal("render missing function")
	}
}

func TestCleanWithoutFenceFlagged(t *testing.T) {
	// The commit atomic itself is the first ordering point, so a clean
	// issued immediately before it has not retired: the classic missing
	// sfence bug... except the atomic *is* a fence, so the clean
	// retires at the commit. The genuinely buggy order is clean AFTER
	// the commit.
	tb := record(func(c *sim.Core) {
		c.PushFunc("txn")
		c.Write(pmBase, make([]byte, 64))
		c.CAS(pmBase+1<<20, 0, 1) // commit before the clean
		c.Prestore(pmBase, 64, sim.Clean)
		c.PopFunc()
	})
	res := check(t, tb, Config{Base: pmBase, Size: 1 << 30, LineSize: 64})
	if res.Ok() {
		t.Fatal("late clean not flagged")
	}
}

func TestNTStoreNeedsOnlyFence(t *testing.T) {
	tb := record(func(c *sim.Core) {
		c.PushFunc("txn")
		c.WriteNT(pmBase, make([]byte, 256))
		c.Fence()
		c.CAS(pmBase+1<<20, 0, 1)
		c.PopFunc()
	})
	res := check(t, tb, Config{Base: pmBase, Size: 1 << 30, LineSize: 64})
	if !res.Ok() {
		t.Fatalf("NT + fence flagged: %v", res.Violations)
	}
}

func TestRangeRestriction(t *testing.T) {
	tb := record(func(c *sim.Core) {
		c.PushFunc("txn")
		c.Write(100, make([]byte, 64)) // DRAM scratch: not checked
		c.CAS(pmBase+1<<20, 0, 1)
		c.PopFunc()
	})
	res := check(t, tb, Config{Base: pmBase, Size: 1 << 30, LineSize: 64})
	if !res.Ok() {
		t.Fatalf("out-of-range store flagged: %v", res.Violations)
	}
}

func TestCommitFnFilter(t *testing.T) {
	tb := record(func(c *sim.Core) {
		c.PushFunc("worker")
		c.Write(pmBase, make([]byte, 64))
		c.Fence() // ordinary fence, not a commit under CommitFn
		c.PopFunc()
		c.PushFunc("log.commit")
		c.Fence()
		c.PopFunc()
	})
	res := check(t, tb, Config{Base: pmBase, Size: 1 << 30, LineSize: 64, CommitFn: "log.commit"})
	if res.Ok() {
		t.Fatal("uncleaned store survived a named commit")
	}
	if res.Violations[0].CommitFn != "log.commit" {
		t.Fatalf("commit attribution: %+v", res.Violations[0])
	}
}

func TestViolationCap(t *testing.T) {
	tb := record(func(c *sim.Core) {
		c.PushFunc("txn")
		for i := uint64(0); i < 100; i++ {
			c.Write(pmBase+i*64, make([]byte, 64))
		}
		c.CAS(pmBase+1<<20, 0, 1)
		c.PopFunc()
	})
	res := check(t, tb, Config{Base: pmBase, Size: 1 << 30, LineSize: 64, MaxViolations: 5})
	if len(res.Violations) != 5 {
		t.Fatalf("cap not applied: %d", len(res.Violations))
	}
}
