package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"prestores/internal/obs"
)

// Client speaks the job API to a daemon or a coordinator — the two
// serve the same surface. The coordinator calls its worker shards
// through it, and prestore-bench and prestore-trace call the daemon or
// coordinator they are pointed at, both following their jobs through
// Follow. The coordinator layers its own recovery policy (requeue onto
// the next ring shard) on Stream.
type Client struct {
	api     *http.Client // unary calls: a hung server must fail the call
	stream  *http.Client // progress streams: they live as long as the job
	Backoff Backoff      // paces Submit's 429 retries, and callers' own retries
}

// maxResponse caps a unary answer; it is sized for a pass-2 partial of
// a dense trace chunk.
const maxResponse = 1 << 26

// NewClient builds a Client whose unary calls time out after timeout
// (<= 0 means 30 s). Unary calls and streams share transport (nil
// means http.DefaultTransport).
func NewClient(timeout time.Duration, transport http.RoundTripper, bo Backoff) *Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Client{
		api:     &http.Client{Timeout: timeout, Transport: transport},
		stream:  &http.Client{Transport: transport},
		Backoff: bo,
	}
}

// Response is a server's answer to a unary call: status code and body.
type Response struct {
	Code int
	Body []byte
}

// Job decodes the answer as a job status; nil unless the call produced
// one (200 or 202).
func (r *Response) Job() *JobStatus {
	if r.Code != http.StatusOK && r.Code != http.StatusAccepted {
		return nil
	}
	var st JobStatus
	if json.Unmarshal(r.Body, &st) != nil {
		return nil
	}
	return &st
}

// StatusError is an answer the caller did not ask for: a submit that
// was not accepted, or a refused stream attach.
type StatusError struct {
	Code int
	Body []byte
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server returned %d %s: %s", e.Code, http.StatusText(e.Code), bytes.TrimSpace(e.Body))
}

// send issues one request carrying ctx's span as a traceparent header,
// so the server's work joins the caller's trace.
func send(ctx context.Context, hc *http.Client, method, url, contentType string, body []byte) (*http.Response, error) {
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
	return hc.Do(req)
}

// Do performs one unary call. An error means the server did not answer
// at all (connect failure, timeout); any HTTP answer, 4xx and 5xx
// included, comes back as a Response.
func (c *Client) Do(ctx context.Context, method, url, contentType string, body []byte) (*Response, error) {
	resp, err := send(ctx, c.api, method, url, contentType, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse))
	if err != nil {
		return nil, err
	}
	return &Response{Code: resp.StatusCode, Body: data}, nil
}

// Submit POSTs a JSON body (nil for none) and decodes a 2xx answer into
// out. 429s — a full queue — are retried on the Backoff schedule; ctx
// is the total retry budget, so its deadline or cancellation ends the
// loop mid-pause. Any other answer is a *StatusError.
func (c *Client) Submit(ctx context.Context, url string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		resp, err := c.Do(ctx, http.MethodPost, url, "application/json", body)
		if err != nil {
			return err
		}
		switch {
		case resp.Code == http.StatusTooManyRequests:
			if err := c.Backoff.Sleep(ctx, attempt); err != nil {
				return err
			}
		case resp.Code/100 != 2:
			return &StatusError{Code: resp.Code, Body: resp.Body}
		default:
			if err := json.Unmarshal(resp.Body, out); err != nil {
				return fmt.Errorf("bad answer from %s: %v", url, err)
			}
			return nil
		}
	}
}

// Stream attaches to job id's progress stream on base, replaying from
// output byte offset, and hands each event to fn. It returns nil once
// fn has taken the done event, fn's error as soon as fn fails, a
// *StatusError when the attach is refused, and any other error when the
// stream breaks first (transport loss, a truncated stream, a malformed
// line) — the case a caller may reconnect through at the offset it has
// consumed.
func (c *Client) Stream(ctx context.Context, base, id string, offset int, fn func(StreamEvent) error) error {
	url := base + "/v1/jobs/" + id + "/stream"
	if offset > 0 {
		url += "?offset=" + strconv.Itoa(offset)
	}
	resp, err := send(ctx, c.stream, http.MethodGet, url, "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &StatusError{Code: resp.StatusCode, Body: data}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("bad stream line: %v", err)
		}
		if ev.Event == "done" && ev.Job == nil {
			return errors.New("done event without a job status")
		}
		if err := fn(ev); err != nil {
			return err
		}
		if ev.Event == "done" {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return errors.New("stream ended without a done event")
}

// maxFollowReconnects bounds Follow's consecutive fruitless reconnects;
// an attach that delivers new output bytes resets the budget.
const maxFollowReconnects = 5

// Follow follows job id's stream on base to its end, copying output to
// w, and returns the final status (with its Result). A broken stream
// reattaches at the output offset consumed, on the Backoff schedule, so
// no byte is written twice; a definitive answer — an HTTP error status,
// a failed write, ctx's end — ends it without a retry.
func (c *Client) Follow(ctx context.Context, base, id string, w io.Writer) (*JobStatus, error) {
	consumed, attempts := 0, 0
	for {
		before := consumed
		var final *JobStatus
		var writeErr error
		err := c.Stream(ctx, base, id, consumed, func(ev StreamEvent) error {
			switch ev.Event {
			case "output":
				if _, writeErr = io.WriteString(w, ev.Data); writeErr != nil {
					return writeErr
				}
				consumed += len(ev.Data)
			case "done":
				final = ev.Job
			}
			return nil
		})
		var se *StatusError
		switch {
		case err == nil && final.Result == nil:
			return nil, errors.New("done event without a result")
		case err == nil:
			return final, nil
		case writeErr != nil || errors.As(err, &se):
			return nil, err
		case ctx.Err() != nil:
			return nil, ctx.Err()
		}
		if consumed > before {
			attempts = 0 // the attach was productive; fresh budget
		}
		if attempts >= maxFollowReconnects {
			return nil, fmt.Errorf("stream broken after %d reconnect attempts: %w", attempts, err)
		}
		if err := c.Backoff.Sleep(ctx, attempts); err != nil {
			return nil, err
		}
		attempts++
	}
}

// Cancel asks base to cancel job id (DELETE /v1/jobs/{id}).
func (c *Client) Cancel(ctx context.Context, base, id string) error {
	resp, err := c.Do(ctx, http.MethodDelete, base+"/v1/jobs/"+id, "", nil)
	if err == nil && resp.Code != http.StatusOK {
		err = &StatusError{Code: resp.Code, Body: resp.Body}
	}
	return err
}

// Spans fetches job id's span timeline from base and returns its raw
// spans and the count its store dropped.
func (c *Client) Spans(ctx context.Context, base, id string) ([]obs.Span, int, error) {
	resp, err := c.Do(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/spans", "", nil)
	if err != nil {
		return nil, 0, err
	}
	if resp.Code != http.StatusOK {
		return nil, 0, &StatusError{Code: resp.Code, Body: resp.Body}
	}
	var doc struct {
		OtherData struct {
			Dropped int `json:"droppedSpans"`
		} `json:"otherData"`
		Spans []obs.Span `json:"spans"`
	}
	if err := json.Unmarshal(resp.Body, &doc); err != nil {
		return nil, 0, err
	}
	return doc.Spans, doc.OtherData.Dropped, nil
}
