package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"prestores/internal/server"
)

// prober tracks per-shard health. A background loop probes every
// shard's /healthz on an interval; the routing path can also mark a
// shard down immediately when a proxied call fails (markDown), so a
// dead worker stops receiving jobs at the first failure rather than
// at the next probe tick. A shard only comes back through a
// successful probe — flapping costs a probe interval, not a request.
type prober struct {
	shards   []string
	client   *server.Client
	interval time.Duration
	timeout  time.Duration
	log      *slog.Logger
	onChange func(shard int, healthy bool)

	up   []atomic.Bool
	stop chan struct{}
	done chan struct{}
}

func newProber(shards []string, client *server.Client, interval, timeout time.Duration,
	log *slog.Logger, onChange func(int, bool)) *prober {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	p := &prober{
		shards: shards, client: client, interval: interval, timeout: timeout,
		log: log, onChange: onChange,
		up:   make([]atomic.Bool, len(shards)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	// Shards start healthy: a cold coordinator routes optimistically
	// and demotes on the first failed call or probe, instead of
	// rejecting everything until the first probe round completes.
	for i := range p.up {
		p.up[i].Store(true)
	}
	return p
}

// run is the probe loop; call in a goroutine, stop with close().
func (p *prober) run() {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	p.probeAll()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.probeAll()
		}
	}
}

func (p *prober) probeAll() {
	for i, s := range p.shards {
		ok := p.probe(context.Background(), i)
		if p.up[i].Swap(ok) != ok {
			if ok {
				p.log.Info("shard healthy", "shard", s)
			} else {
				p.log.Warn("shard unhealthy", "shard", s)
			}
			if p.onChange != nil {
				p.onChange(i, ok)
			}
		}
	}
}

// probe asks shard i's /healthz, under the probe timeout.
func (p *prober) probe(ctx context.Context, i int) bool {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	resp, err := p.client.Do(ctx, "GET", p.shards[i]+"/healthz", "", nil)
	return err == nil && resp.Code == http.StatusOK
}

// close stops the probe loop and waits for it to exit.
func (p *prober) close() {
	close(p.stop)
	<-p.done
}

// healthy reports whether shard i passed its last probe (and has not
// been marked down since).
func (p *prober) healthy(i int) bool { return p.up[i].Load() }

// markDown demotes a shard immediately after a failed proxied call.
func (p *prober) markDown(i int) {
	if p.up[i].Swap(false) {
		p.log.Warn("shard unhealthy", "shard", p.shards[i], "reason", "request failed")
		if p.onChange != nil {
			p.onChange(i, false)
		}
	}
}

// healthyCount returns how many shards are currently routable.
func (p *prober) healthyCount() int {
	n := 0
	for i := range p.up {
		if p.up[i].Load() {
			n++
		}
	}
	return n
}
