package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"prestores/internal/server"
)

// muxNotFound reports whether a response is the mux's own "no such
// route" answer, as opposed to a handler's 404 about a missing job,
// trace or upload (which is JSON).
func muxNotFound(code int, body []byte) bool {
	return code == http.StatusNotFound && string(body) == "404 page not found\n"
}

// TestRoutesServedByCoordinator guards the one route table against
// drift: every route a daemon serves reaches a handler through a
// two-shard coordinator — the mux answers neither 404 nor 405 — except
// the worker-only ones, which the coordinator does not serve.
func TestRoutesServedByCoordinator(t *testing.T) {
	coord, cts, _ := newCluster(t, 2, synth("r1"))
	st := submitExp(t, cts.URL, "r1")
	waitFinal(t, cts.URL, st.ID)

	routes := coord.tuner.Routes()
	if len(routes) == 0 {
		t.Fatal("empty route table")
	}
	for _, rt := range routes {
		method, path, _ := strings.Cut(rt.Pattern, " ")
		path = strings.NewReplacer("{id}", st.ID, "{address}", "no-such-trace").Replace(path)
		var body io.Reader
		if method == "POST" || method == "PUT" {
			body = strings.NewReader("{}")
		}
		req, err := http.NewRequest(method, cts.URL+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", rt.Pattern, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case rt.Place == server.WorkerOnly:
			if !muxNotFound(resp.StatusCode, data) {
				t.Errorf("%s is worker-only, but the coordinator answered %d: %s", rt.Pattern, resp.StatusCode, data)
			}
		case muxNotFound(resp.StatusCode, data) || resp.StatusCode == http.StatusMethodNotAllowed:
			t.Errorf("%s is not served by the coordinator: %d %s", rt.Pattern, resp.StatusCode, data)
		}
	}
}

// TestPprofMountedAroundCoordinator is the coordinator case of the
// daemon's TestPprofGatedByConfig: prestored -coordinator -pprof mounts
// the profiling surface in front of the coordinator's handler, which
// keeps serving the API behind it.
func TestPprofMountedAroundCoordinator(t *testing.T) {
	coord, cts, _ := newCluster(t, 1)
	get := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(cts.URL + "/debug/pprof/cmdline"); code != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", code)
	}
	on := httptest.NewServer(server.WithPprof(coord.Handler()))
	defer on.Close()
	if code := get(on.URL + "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof on: status %d, want 200", code)
	}
	if code := get(on.URL + "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz behind the pprof mount: status %d, want 200", code)
	}
}
