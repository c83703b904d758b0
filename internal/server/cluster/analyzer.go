package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"

	"prestores/internal/dirtbuster"
	"prestores/internal/server"
	"prestores/internal/trace"
)

// clusterAnalyzer is the chunk-analysis backend the coordinator injects
// into its embedded host: each per-chunk map step of a trace analysis
// becomes a POST /v1/analyses/chunks against a worker shard, placed by
// the coordinator's dispatch rule on the chunk's content-address.
// Identical chunks always land on the same shard, a shard answering 429
// is retried with the shared backoff schedule, and a shard that dies
// mid-analysis is demoted while its chunk moves to the next ring
// position. Both phases are pure functions of the chunk (plus the
// plan), and the embedded host still reduces partials in chunk order —
// so the sharded report stays byte-identical to the monolithic one no
// matter which shards did the work or in what order they answered.
type clusterAnalyzer struct {
	c *Coordinator
}

func (a clusterAnalyzer) Concurrency() int {
	n := 2 * len(a.c.cfg.Shards)
	if n > 8 {
		n = 8
	}
	if n < 2 {
		n = 2
	}
	return n
}

// chunkAddress content-addresses one chunk for ring placement.
func chunkAddress(c *trace.Chunk) (string, error) {
	var buf bytes.Buffer
	if err := trace.EncodeChunk(&buf, c); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

func (a clusterAnalyzer) Stats(ctx context.Context, ch *trace.Chunk) (*dirtbuster.Stats, error) {
	body, err := server.StatsChunkRequest(ch)
	if err != nil {
		return nil, err
	}
	resp, err := a.dispatch(ctx, ch, body)
	if err != nil {
		return nil, err
	}
	var st dirtbuster.Stats
	if err := json.Unmarshal(resp, &st); err != nil {
		return nil, fmt.Errorf("chunk %d: bad stats payload: %v", ch.Index, err)
	}
	return &st, nil
}

func (a clusterAnalyzer) Partial(ctx context.Context, plan *dirtbuster.Plan, ch *trace.Chunk) (*dirtbuster.Partial, error) {
	body, err := server.PartialChunkRequest(plan, ch)
	if err != nil {
		return nil, err
	}
	resp, err := a.dispatch(ctx, ch, body)
	if err != nil {
		return nil, err
	}
	pt, err := dirtbuster.DecodePartial(bytes.NewReader(resp))
	if err != nil {
		return nil, fmt.Errorf("chunk %d: bad partial payload: %v", ch.Index, err)
	}
	return pt, nil
}

// dispatch sends one framed chunk request through the coordinator's
// dispatch rule, placed by the chunk's content-address. Every shard the
// chunk moved off counts as a chunk retry; a shard's 200 is the answer,
// any other final answer fails the chunk (a shard that calls the
// request malformed will not change its mind elsewhere).
func (a clusterAnalyzer) dispatch(ctx context.Context, ch *trace.Chunk, body []byte) ([]byte, error) {
	c := a.c
	addr, err := chunkAddress(ch)
	if err != nil {
		return nil, err
	}
	var visited []int
	shard, sr, err := c.dispatch(ctx, "chunk", addr, -1, func(ctx context.Context, shard int) (*server.Response, error) {
		if len(visited) == 0 || visited[len(visited)-1] != shard {
			visited = append(visited, shard)
		}
		return c.client.Do(ctx, "POST", c.cfg.Shards[shard]+"/v1/analyses/chunks", "application/octet-stream", body)
	})
	for _, s := range visited {
		if s != shard {
			c.m.chunkRetries.Inc(c.cfg.Shards[s])
		}
	}
	if err != nil {
		return nil, fmt.Errorf("chunk %d: %w", ch.Index, err)
	}
	if sr.Code != http.StatusOK {
		return nil, fmt.Errorf("shard %s rejected chunk %d: %d %s",
			c.cfg.Shards[shard], ch.Index, sr.Code, bytes.TrimSpace(sr.Body))
	}
	c.m.chunks.Inc(c.cfg.Shards[shard])
	return sr.Body, nil
}
