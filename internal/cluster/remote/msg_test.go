package remote

import (
	"bytes"
	"context"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/chase"
	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/truth"
)

// sampleEnvelopes returns one envelope per message type. Between them the
// round and result payloads carry every truth.OpKind (ReplaceOrder with
// its covering pairs), every chase.FixKind, and unresolved conflicts with
// and without a Conflict.
func sampleEnvelopes() []envelope {
	fixes := []chase.Fix{
		{Kind: chase.FixMerge, EID1: "e1", EID2: "e2", RuleID: "r1"},
		{Kind: chase.FixSeparate, EID1: "e3", EID2: "e4", RuleID: "r2"},
		{Kind: chase.FixCell, Rel: "Trans", Attr: "mfg", EID1: "e1", TID: 7, Value: data.S("Huawei"), RuleID: "r3"},
		{Kind: chase.FixCell, Rel: "Trans", Attr: "price", EID1: "e5", TID: 8, Value: data.Null(data.TInt), RuleID: "r3"},
		{Kind: chase.FixOrder, Rel: "Store", Attr: "area", TID1: 3, TID2: 9, Strict: true, RuleID: "r4"},
	}
	pre := &chase.RoundPreamble{
		Round:   3,
		RuleIDs: []string{"r1", "r2", "r3", "r4"},
		Journal: []truth.Op{
			{Kind: truth.OpMergeEIDs, A: "e1", B: "e2"},
			{Kind: truth.OpSeparateEIDs, A: "e3", B: "e4"},
			{Kind: truth.OpSetCell, Rel: "Trans", Attr: "mfg", A: "e1", Value: data.S("Huawei")},
			{Kind: truth.OpReplaceCell, Rel: "Trans", Attr: "date", A: "e1", Value: data.TS(-86400)},
			{Kind: truth.OpAddOrder, Rel: "Store", Attr: "area", TID1: 3, TID2: 9, Strict: true},
			{Kind: truth.OpReplaceOrder, Rel: "Store", Attr: "area",
				OrderPairs: [][2]int{{1, 2}, {2, 5}, {4, 5}}, OrderStrict: []bool{true, false, true}},
		},
		Accepted: fixes,
		UseDirty: true,
		Units:    24,
	}
	out := chase.UnitOutcome{
		Unit:  5,
		Fixes: fixes,
		Unresolved: []chase.UnresolvedConflict{
			{Fix: fixes[2]},
			{Conflict: &truth.Conflict{Kind: truth.ValueConflict, Rel: "Trans", Attr: "mfg", EID: "e1",
				Old: data.S("Apple"), New: data.S("Huawei")}, Fix: fixes[2]},
			{Conflict: &truth.Conflict{Kind: truth.OrderConflict, Rel: "Store", Attr: "area", A: "3", B: "9",
				Old: data.F(2.5), New: data.B(true)}, Fix: fixes[4]},
		},
		ResolvedMI: 2, Valuations: 1234, MLCalls: 56, CostNs: 789, Node: "worker-1",
	}
	return []envelope{
		{Type: mtHello, Hello: &helloMsg{Fingerprint: "fp", Name: "4242"}},
		{Type: mtHelloAck, Ack: &helloAckMsg{Name: "worker-0"}},
		{Type: mtHelloAck, Ack: &helloAckMsg{Err: "fingerprint mismatch"}},
		{Type: mtRound, Round: pre},
		{Type: mtRoundAck, RAck: &roundAckMsg{Round: 3, Units: 24}},
		{Type: mtRoundAck, RAck: &roundAckMsg{Round: 3, Err: "replay failed"}},
		{Type: mtAssign, Assign: &assignMsg{Round: 3, Units: []int{0, 1, 2, 11}}},
		{Type: mtResult, Result: &resultMsg{Round: 3, Outcome: out}},
		{Type: mtResult, Result: &resultMsg{Round: 3, Err: "unit 5 panicked", Outcome: chase.UnitOutcome{Unit: 5}}},
		{Type: mtHeartbeat},
	}
}

func TestMsgRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	envs := sampleEnvelopes()
	for _, env := range envs {
		if err := writeMsg(&buf, env); err != nil {
			t.Fatalf("writeMsg(%s): %v", env.Type, err)
		}
	}
	for i, want := range envs {
		got, err := readMsg(&buf, 0)
		if err != nil {
			t.Fatalf("readMsg #%d (%s): %v", i, want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("message #%d (%s) round-tripped to\n%+v\nwant\n%+v", i, want.Type, got, want)
		}
	}
}

func FuzzReadMsg(f *testing.F) {
	for _, env := range sampleEnvelopes() {
		payload, err := encodeMsg(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	// Arbitrary bytes in a valid frame decode to an envelope or fail;
	// they never panic the reader.
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		readMsg(&buf, 1<<20)
	})
}

// TestWorkerRejectsMissingPayload has a fake coordinator complete the
// handshake and then send a round or assign frame without its payload:
// the worker must return a protocol error, not crash.
func TestWorkerRejectsMissingPayload(t *testing.T) {
	for _, typ := range []msgType{mtRound, mtAssign} {
		t.Run(string(typ), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			release := make(chan struct{})
			defer close(release)
			go func() {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				if _, err := readMsg(conn, 0); err != nil {
					return
				}
				writeMsg(conn, envelope{Type: mtHelloAck, Ack: &helloAckMsg{Name: "worker-0"}})
				writeMsg(conn, envelope{Type: typ})
				<-release // hold the connection open: EOF would be a clean shutdown
			}()
			errc := make(chan error, 1)
			go func() {
				errc <- RunWorker(context.Background(), &panicFollower{}, WorkerOptions{Coord: ln.Addr().String()})
			}()
			select {
			case err := <-errc:
				if err == nil {
					t.Fatalf("RunWorker accepted a %s frame without its payload", typ)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("RunWorker still running after a %s frame without its payload", typ)
			}
		})
	}
}

// closingFollower is a replica that closes started when its first unit
// begins; every unit waits for release before it finishes.
type closingFollower struct {
	once             sync.Once
	started, release chan struct{}
}

func (f *closingFollower) FollowRound(pre chase.RoundPreamble) (int, error) { return pre.Units, nil }

func (f *closingFollower) RunFollowUnit(_ context.Context, i int, _ string) (chase.UnitOutcome, error) {
	f.once.Do(func() { close(f.started) })
	<-f.release
	return chase.UnitOutcome{Unit: i}, nil
}

// TestWorkerReturnsNilWhenCoordinatorClosesMidUnit has a fake coordinator
// assign units and close the connection while the first is in flight:
// the worker's result sends then fail on the closed peer, which is a
// normal shutdown, so RunWorker returns nil.
func TestWorkerReturnsNilWhenCoordinatorClosesMidUnit(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	f := &closingFollower{started: make(chan struct{}), release: make(chan struct{})}
	go func() {
		defer close(f.release)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readMsg(conn, 0); err != nil {
			return
		}
		writeMsg(conn, envelope{Type: mtHelloAck, Ack: &helloAckMsg{Name: "worker-0"}})
		writeMsg(conn, envelope{Type: mtAssign, Assign: &assignMsg{Round: 1, Units: []int{0, 1, 2, 3}}})
		select { // close with the first unit in flight
		case <-f.started:
		case <-time.After(10 * time.Second):
		}
	}()
	errc := make(chan error, 1)
	go func() {
		errc <- RunWorker(context.Background(), f, WorkerOptions{Coord: ln.Addr().String()})
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("RunWorker after the coordinator closed: %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunWorker still running after the coordinator closed")
	}
}
