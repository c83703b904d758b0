package core

import "testing"

// touch is one event fed to a LineReuse: a write (with its rewrite
// argument) or a read, at an instruction count.
type touch struct {
	write   bool
	instr   uint64
	rewrite bool
}

func write(instr uint64) touch       { return touch{write: true, instr: instr, rewrite: true} }
func streakWrite(instr uint64) touch { return touch{write: true, instr: instr} }
func read(instr uint64) touch        { return touch{instr: instr} }

// written is the record of a written line with counters u whose last
// write was at instruction count last.
func written(u Reuse, last uint64) LineReuse {
	return LineReuse{Reuse: u, LastWrite: last, Written: true}
}

// TestLineReuseRule pins the one re-write/re-read rule DirtBuster and
// the telemetry recorder share, at the default thresholds.
func TestLineReuseRule(t *testing.T) {
	cases := []struct {
		name    string
		touches []touch
		want    LineReuse
	}{
		{"first write is not a rewrite", []touch{write(10)}, written(Reuse{}, 10)},
		{"rewrite at exactly NearRewrite is near", []touch{write(10), write(10 + NearRewrite)},
			written(Reuse{Rewrites: 1, RewriteDistSum: NearRewrite, NearRewrites: 1}, 10+NearRewrite)},
		{"rewrite at NearRewrite+1 is far", []touch{write(10), write(11 + NearRewrite)},
			written(Reuse{Rewrites: 1, RewriteDistSum: NearRewrite + 1}, 11+NearRewrite)},
		{"smaller count adds no distance but becomes the last write", []touch{write(500), write(20), write(30)},
			written(Reuse{Rewrites: 1, RewriteDistSum: 10, NearRewrites: 1}, 30)},
		{"rewrite=false updates the last write without counting", []touch{write(10), streakWrite(50), write(70)},
			written(Reuse{Rewrites: 1, RewriteDistSum: 20, NearRewrites: 1}, 70)},
		{"read before any write counts nothing", []touch{read(5), read(100)}, LineReuse{}},
		{"reread at exactly NearReread is near", []touch{write(10), read(10 + NearReread)},
			written(Reuse{Rereads: 1, RereadDistSum: NearReread, NearRereads: 1}, 10)},
		{"reread at NearReread+1 is far", []touch{write(10), read(11 + NearReread)},
			written(Reuse{Rereads: 1, RereadDistSum: NearReread + 1}, 10)},
		{"read from another core counts nothing", []touch{write(100), read(40)}, written(Reuse{}, 100)},
		{"rereads measure from the last write", []touch{write(10), read(15), write(20), read(24)},
			written(Reuse{Rewrites: 1, RewriteDistSum: 10, NearRewrites: 1,
				Rereads: 2, RereadDistSum: 9, NearRereads: 2}, 20)},
	}
	for _, tc := range cases {
		var l LineReuse
		for _, x := range tc.touches {
			if x.write {
				l.Write(x.instr, NearRewrite, x.rewrite)
			} else {
				l.Read(x.instr, NearReread)
			}
		}
		if l != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, l, tc.want)
		}
	}
}

func TestReuseAddAndAverages(t *testing.T) {
	var u Reuse
	if u.AvgRewriteDist() != 0 || u.AvgRereadDist() != 0 {
		t.Fatal("averages of an empty record must be 0")
	}
	u.Add(Reuse{Rewrites: 2, RewriteDistSum: 10, NearRewrites: 1, Rereads: 1, RereadDistSum: 7, NearRereads: 1})
	u.Add(Reuse{Rewrites: 2, RewriteDistSum: 30, Rereads: 3, RereadDistSum: 1, NearRereads: 3})
	want := Reuse{Rewrites: 4, RewriteDistSum: 40, NearRewrites: 1, Rereads: 4, RereadDistSum: 8, NearRereads: 4}
	if u != want {
		t.Fatalf("Add: got %+v, want %+v", u, want)
	}
	if u.AvgRewriteDist() != 10 || u.AvgRereadDist() != 2 {
		t.Errorf("averages = %g, %g; want 10, 2", u.AvgRewriteDist(), u.AvgRereadDist())
	}
}
