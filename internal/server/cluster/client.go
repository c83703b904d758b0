package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"prestores/internal/obs"
	"prestores/internal/server"
)

// shardClient is the coordinator's HTTP client for worker daemons: a
// timed client for unary calls (submit, status, cancel, listings, chunk
// analyses — a hung shard must not hang the coordinator), an untimed
// one for long-lived NDJSON streams, and the shared backoff schedule
// for absorbing a shard's 429s.
type shardClient struct {
	api    *http.Client
	stream *http.Client
	bo     Backoff
}

func newShardClient(requestTimeout time.Duration, bo Backoff, transport http.RoundTripper) *shardClient {
	if requestTimeout <= 0 {
		requestTimeout = 30 * time.Second
	}
	return &shardClient{
		api:    &http.Client{Timeout: requestTimeout, Transport: transport},
		stream: &http.Client{Transport: transport},
		bo:     bo,
	}
}

const (
	jsonType  = "application/json"
	chunkType = "application/octet-stream"
	// unaryCap bounds a JSON answer; chunkCap is sized for a pass-2
	// partial of a dense chunk.
	unaryCap = 1 << 24
	chunkCap = 1 << 26
)

// shardResponse is a worker's answer to a unary call: the status code
// and raw body, passed through to the client verbatim on
// application-level errors.
type shardResponse struct {
	code    int
	body    []byte
	status  *server.JobStatus
	decoded bool
}

// job decodes the answer as a job status; nil unless the call produced
// one (200/202).
func (sr *shardResponse) job() *server.JobStatus {
	if !sr.decoded {
		sr.decoded = true
		if sr.code == http.StatusOK || sr.code == http.StatusAccepted {
			var st server.JobStatus
			if json.Unmarshal(sr.body, &st) == nil {
				sr.status = &st
			}
		}
	}
	return sr.status
}

// send issues one request to a shard, carrying the context's span so
// the shard's work joins the same trace.
func send(ctx context.Context, client *http.Client, method, url, contentType string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	obs.InjectContext(ctx, req.Header)
	return client.Do(req)
}

// do performs one unary call against a shard, reading at most limit
// bytes of the answer. A returned error means the shard did not answer
// at all (connect failure, timeout) — the signal the coordinator treats
// as "shard down". Any HTTP response, including 4xx/5xx, is returned
// as a shardResponse.
func (sc *shardClient) do(ctx context.Context, method, url, contentType string, body []byte, limit int64) (*shardResponse, error) {
	resp, err := send(ctx, sc.api, method, url, contentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, err
	}
	return &shardResponse{code: resp.StatusCode, body: data}, nil
}

// openStream attaches to a job's NDJSON stream on its shard, replaying
// from the given byte offset. The response body is the live stream;
// the caller owns closing it. A non-200 answer comes back as an error
// plus its status code, so the caller can tell "job unknown on this
// shard" (a restarted worker lost its jobs — requeue) from transport
// loss (code 0).
func (sc *shardClient) openStream(ctx context.Context, shardURL, remoteID string, offset int) (io.ReadCloser, int, error) {
	url := shardURL + "/v1/jobs/" + remoteID + "/stream"
	if offset > 0 {
		url += "?offset=" + strconv.Itoa(offset)
	}
	resp, err := send(ctx, sc.stream, "GET", url, "", nil)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, resp.StatusCode, fmt.Errorf("shard returned %d to stream attach: %s", resp.StatusCode, data)
	}
	return resp.Body, resp.StatusCode, nil
}

// healthy probes a shard's /healthz with its own short deadline.
func (sc *shardClient) healthy(ctx context.Context, shardURL string, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	sr, err := sc.do(ctx, "GET", shardURL+"/healthz", "", nil, 4096)
	return err == nil && sr.code == http.StatusOK
}
