package dirtbuster

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"prestores/internal/core"
	"prestores/internal/sim"
	"prestores/internal/trace"
)

func streamWorkload() Workload {
	return wl("stream", func(c *sim.Core) {
		c.PushFunc("stream.write")
		buf := make([]byte, 4096)
		for i := uint64(0); i < 1500; i++ {
			c.Write(base+i*4096, buf)
		}
		c.PopFunc()
	})
}

func TestOfflineMatchesLive(t *testing.T) {
	w := streamWorkload()
	live := Analyze(w, Config{})
	tb, line := Record(w)
	offline := AnalyzeTrace("stream", tb, line, Config{})

	if live.WriteIntensive != offline.WriteIntensive {
		t.Fatal("write-intensity classification differs offline")
	}
	if la, oa := live.Advice("stream.write"), offline.Advice("stream.write"); la != oa {
		t.Fatalf("advice differs: live %v vs offline %v", la, oa)
	}
	if len(live.Functions) == 0 || len(offline.Functions) == 0 {
		t.Fatal("missing functions")
	}
	lf, of := live.Functions[0], offline.Functions[0]
	if lf.SeqWriteShare != of.SeqWriteShare {
		t.Fatalf("seq share differs: %v vs %v", lf.SeqWriteShare, of.SeqWriteShare)
	}
}

func TestOfflineThroughEncodeDecode(t *testing.T) {
	// testdata/stream.v1.pstr is streamWorkload's recording in the
	// read-only v1 format, written once by the v1 encoder.
	data, err := os.ReadFile(filepath.Join("testdata", "stream.v1.pstr"))
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	line := streamWorkload().NewMachine().LineSize()
	rep := AnalyzeTrace("stream", decoded, line, Config{})
	if got := rep.Advice("stream.write"); got != core.Skip {
		t.Fatalf("advice after file roundtrip = %v\n%s", got, rep.Render())
	}
}

func TestOfflineNotWriteIntensive(t *testing.T) {
	w := wl("reader", func(c *sim.Core) {
		c.PushFunc("init")
		c.Write(base, make([]byte, 64))
		c.PopFunc()
		var b [8]byte
		c.PushFunc("reader.loop")
		for i := 0; i < 4000; i++ {
			c.Read(base+uint64(i%8)*8, b[:])
			c.Compute(16)
		}
		c.PopFunc()
	})
	tb, line := Record(w)
	rep := AnalyzeTrace("reader", tb, line, Config{})
	if rep.WriteIntensive {
		t.Fatalf("read-mostly trace classified write-intensive (%.2f)", rep.StoreShare)
	}
}

func TestRecordProducesOps(t *testing.T) {
	tb, line := Record(streamWorkload())
	if tb.Len() == 0 {
		t.Fatal("empty recording")
	}
	if line != 64 {
		t.Fatalf("line size %d", line)
	}
}
