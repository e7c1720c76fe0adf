package truth

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/rockclean/rock/internal/data"
)

// opKinds renders an op sequence by kind, for compact assertions.
func opKinds(ops []Op) string {
	names := []string{"merge", "separate", "cell", "replace-cell", "order", "replace-order"}
	out := make([]string, len(ops))
	for i, op := range ops {
		out[i] = names[op.Kind]
	}
	return strings.Join(out, " ")
}

// TestJournalReplayEquivalence is the replication property the
// distributed chase depends on: a random mutation sequence, shipped at
// random barriers as the ops since the last mark and replayed over a
// fresh replica, must end in a Snapshot-identical state. Conflicting and
// no-op mutations are not recorded, so the replayed log must also be
// conflict-free — and the replica's own journal must hold exactly the
// ops it replayed.
func TestJournalReplayEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		primary := NewFixSet()

		eid := func() string { return fmt.Sprintf("e%d", rng.Intn(12)) }
		attrs := []string{"a", "b", "c"}
		var ops []Op
		shipped := primary.Mark()
		for i := 0; i < 200; i++ {
			switch rng.Intn(7) {
			case 0:
				primary.MergeEIDs(eid(), eid())
			case 1:
				primary.SeparateEIDs(eid(), eid())
			case 2:
				primary.SetCell("R", eid(), attrs[rng.Intn(3)], data.I(int64(rng.Intn(5))))
			case 3:
				primary.ReplaceCell("R", eid(), attrs[rng.Intn(3)], data.S(fmt.Sprint(rng.Intn(5))))
			case 4:
				primary.AddOrder("R", "ts", rng.Intn(8), rng.Intn(8), rng.Intn(2) == 0)
			case 5:
				o := data.NewTemporalOrder("R", "ts2")
				o.AddStrict(rng.Intn(8), rng.Intn(8))
				primary.ReplaceOrder("R", "ts2", o)
			case 6:
				// Round barrier: ship what was recorded since the last one,
				// as the coordinator does between chase rounds.
				ops = append(ops, primary.OpsSince(shipped)...)
				shipped = primary.Mark()
			}
		}
		ops = append(ops, primary.OpsSince(shipped)...)
		if len(ops) != len(primary.OpsSince(0)) {
			t.Fatalf("seed %d: shipped %d ops, journal holds %d", seed, len(ops), len(primary.OpsSince(0)))
		}

		replica := NewFixSet()
		if err := replica.Replay(ops); err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if got, want := replica.Snapshot(), primary.Snapshot(); got != want {
			t.Fatalf("seed %d: replica diverged after replay:\nprimary %d bytes\nreplica %d bytes",
				seed, len(want), len(got))
		}
		if got, want := opKinds(replica.OpsSince(0)), opKinds(ops); got != want {
			t.Fatalf("seed %d: replica journal differs from the replayed ops:\nreplayed %s\njournal  %s", seed, want, got)
		}
	}
}

// TestOpsSinceDoesNotAliasTheJournal: a caller appending to what
// OpsSince returned must not overwrite ops the fix set records later,
// and Mark advances only on a successful mutation.
func TestOpsSinceDoesNotAliasTheJournal(t *testing.T) {
	f := NewFixSet()
	f.MergeEIDs("a", "b")
	mark := f.Mark()
	f.SetCell("R", "a", "x", data.I(1))
	f.SetCell("R", "a", "x", data.I(1)) // no-op: not recorded
	f.SetCell("R", "a", "x", data.I(2)) // conflict: not recorded
	f.AddOrder("R", "t", 1, 2, true)
	if f.Mark() != mark+2 {
		t.Fatalf("mark advanced by %d, want 2", f.Mark()-mark)
	}
	// Three ops leave the journal room to grow in place, which is where an
	// aliased slice would let the caller's append and the next recorded op
	// overwrite each other.
	got := f.OpsSince(mark)
	got = append(got, Op{Kind: OpSeparateEIDs, A: "x", B: "y"})
	f.AddOrder("R", "t", 2, 3, true)
	if k := opKinds(f.OpsSince(0)); k != "merge cell order order" {
		t.Fatalf("journal = %q after a caller appended to OpsSince", k)
	}
	if k := opKinds(got); k != "cell order separate" {
		t.Fatalf("caller's slice = %q", k)
	}
	if len(f.OpsSince(f.Mark())) != 0 {
		t.Fatal("OpsSince(Mark()) must be empty")
	}
}

// TestReplayDetectsDivergence: replaying a log onto a replica whose
// state contradicts the recording base must surface the conflict as an
// error, not silently fork the truth.
func TestReplayDetectsDivergence(t *testing.T) {
	primary := NewFixSet()
	if changed, conflict := primary.MergeEIDs("a", "b"); !changed || conflict != nil {
		t.Fatal("merge on primary should succeed")
	}

	replica := NewFixSet()
	replica.SeparateEIDs("a", "b") // diverged: replica validated a ≠ b
	if err := replica.Replay(primary.OpsSince(0)); err == nil {
		t.Fatal("replay over a diverged replica should error")
	}
}
