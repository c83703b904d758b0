package cluster

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"prestores/internal/server"
)

// countingTransport counts the /healthz answers the prober received.
type countingTransport struct{ probes atomic.Int64 }

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if r.URL.Path == "/healthz" {
		c.probes.Add(1)
	}
	return resp, err
}

// TestSubmitSkipsDrainingShard shuts the key's owning worker down
// before the prober can notice: the draining worker answers the submit
// with 503, and the coordinator must move on to the next shard instead
// of relaying the 503 to the client.
func TestSubmitSkipsDrainingShard(t *testing.T) {
	tr := &countingTransport{}
	coord, cts, shards := newClusterWith(t, 2, func(cfg *Config) {
		cfg.ProbeInterval = time.Hour
		cfg.Transport = tr
	}, synth("drain1"))
	// The prober's first round has seen both shards healthy; no second
	// round comes within the test.
	for tr.probes.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	key, err := routeKey("experiment", []byte(`{"id":"drain1","quick":true}`))
	if err != nil {
		t.Fatal(err)
	}
	owner := coord.ring.Owner(key)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := shards[owner].srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	code, data := postJSON(t, cts.URL+"/v1/experiments", map[string]any{"id": "drain1", "quick": true})
	if code != http.StatusAccepted {
		t.Fatalf("submit with the owner draining: status %d: %s", code, data)
	}
	if final := waitFinal(t, cts.URL, decodeStatus(t, data).ID); final.State != "done" {
		t.Fatalf("job state %q", final.State)
	}
	if got := shards[1-owner].runs.Load(); got != 1 {
		t.Fatalf("the healthy shard ran the job %d times, want 1", got)
	}
	if coord.prober.healthy(owner) {
		t.Error("the draining owner was not demoted")
	}
}

// fakeShards is a Config.Transport standing in for the worker fleet:
// each host answers from a script of status codes (0 is a transport
// failure), repeating its last entry, and /healthz always answers 200.
type fakeShards struct {
	mu     sync.Mutex
	script map[string][]int
	calls  map[string]int
}

func (f *fakeShards) RoundTrip(r *http.Request) (*http.Response, error) {
	code := http.StatusOK
	if r.URL.Path != "/healthz" {
		f.mu.Lock()
		n, sc := f.calls[r.URL.Host], f.script[r.URL.Host]
		f.calls[r.URL.Host]++
		f.mu.Unlock()
		code = sc[min(n, len(sc)-1)]
	}
	if code == 0 {
		return nil, errors.New("connection refused")
	}
	return &http.Response{StatusCode: code, Header: http.Header{}, Request: r,
		Body: io.NopCloser(strings.NewReader(`{"id":"job-1"}`))}, nil
}

// TestDispatchRule drives the one routing primitive through every
// outcome of its rule against a scripted two-shard fleet.
func TestDispatchRule(t *testing.T) {
	const key = "dispatch-key"
	for _, tc := range []struct {
		name        string
		first, next []int // scripts of the key's owner and its successor
		down        bool  // the prober already demoted both shards
		wantShard   int   // index into the key's ring sequence; -1 for none
		wantCode    int
		wantErr     error
		wantCalls   [2]int
		wantDemoted bool // the owner ends up demoted
	}{
		{name: "transport error moves on", first: []int{0}, next: []int{202},
			wantShard: 1, wantCode: 202, wantCalls: [2]int{1, 1}, wantDemoted: true},
		{name: "503 moves on", first: []int{503}, next: []int{202},
			wantShard: 1, wantCode: 202, wantCalls: [2]int{1, 1}, wantDemoted: true},
		{name: "429s retried on the same shard", first: []int{429, 429, 429, 202}, next: []int{202},
			wantShard: 0, wantCode: 202, wantCalls: [2]int{4, 0}},
		{name: "429 exhaustion moves on", first: []int{429}, next: []int{202},
			wantShard: 1, wantCode: 202, wantCalls: [2]int{maxBusyRetries + 1, 1}},
		{name: "400 is final", first: []int{400}, next: []int{202},
			wantShard: 0, wantCode: 400, wantCalls: [2]int{1, 0}},
		{name: "all shards down", first: []int{202}, next: []int{202}, down: true,
			wantShard: -1, wantErr: errNoHealthyShard, wantDemoted: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			urls := []string{"http://s0", "http://s1"}
			seq := NewRing(urls).Sequence(key)
			hosts := [2]string{strings.TrimPrefix(urls[seq[0]], "http://"), strings.TrimPrefix(urls[seq[1]], "http://")}
			fake := &fakeShards{calls: map[string]int{},
				script: map[string][]int{hosts[0]: tc.first, hosts[1]: tc.next}}
			c, err := New(Config{Shards: urls, Transport: fake, ProbeInterval: time.Hour,
				Backoff: server.Backoff{Base: time.Nanosecond, Cap: time.Nanosecond, Jitter: -1}})
			if err != nil {
				t.Fatal(err)
			}
			// Stop the prober after its first round so nothing revives a
			// demoted shard mid-case.
			c.prober.close()
			t.Cleanup(func() { c.tuner.Shutdown(context.Background()) })
			if tc.down {
				c.prober.markDown(0)
				c.prober.markDown(1)
			}

			shard, sr, err := c.dispatch(context.Background(), "test", key, -1,
				func(ctx context.Context, shard int) (*server.Response, error) {
					return c.client.Do(ctx, "POST", urls[shard]+"/v1/eval", "application/json", []byte(`{}`))
				})
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			wantShard := -1
			if tc.wantShard >= 0 {
				wantShard = seq[tc.wantShard]
			}
			if shard != wantShard {
				t.Errorf("answered by shard %d, want %d", shard, wantShard)
			}
			if tc.wantCode != 0 && (sr == nil || sr.Code != tc.wantCode) {
				t.Errorf("answer %+v, want code %d", sr, tc.wantCode)
			}
			if got := [2]int{fake.calls[hosts[0]], fake.calls[hosts[1]]}; got != tc.wantCalls {
				t.Errorf("calls (owner, successor) = %v, want %v", got, tc.wantCalls)
			}
			if demoted := !c.prober.healthy(seq[0]); demoted != tc.wantDemoted {
				t.Errorf("owner demoted = %v, want %v", demoted, tc.wantDemoted)
			}
		})
	}
}
