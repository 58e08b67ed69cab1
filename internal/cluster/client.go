package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"decos/internal/sim"
	"decos/internal/telemetry"
	"decos/internal/trace"
)

// Encoding selects the wire encoding the client prefers for uplink batches.
type Encoding int

const (
	// EncodingBinary posts batches in the binary trace encoding. The
	// default: the binary decode path is what lets a single fleetd peer
	// keep up with the fleet.
	EncodingBinary Encoding = iota
	// EncodingNDJSON posts NDJSON unconditionally — byte-compatible with
	// the pre-binary client.
	EncodingNDJSON
)

// ClientOptions tunes the uplink client. Zero values select defaults.
type ClientOptions struct {
	// HTTPClient performs the POSTs (default: 30 s total timeout).
	HTTPClient *http.Client
	// MaxBatchBytes flushes a peer's buffer once it reaches this size
	// (default 256 KiB). A single vehicle trace larger than the limit is
	// sent as one oversized batch — a vehicle's stream is never split
	// across batches out of order.
	MaxBatchBytes int
	// MaxRetries bounds re-sends of one batch after the first attempt
	// (default 5). A batch that exhausts its retries is dropped and
	// reported through the flush error and Stats.
	MaxRetries int
	// BaseBackoff is the first retry delay (default 50 ms); it doubles
	// per attempt up to MaxBackoff (default 5 s) with ±25 % jitter. A 429
	// Retry-After hint raises the delay to the server's schedule, still
	// capped by MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed feeds the jitter stream (default 1); fixed seeds keep load
	// tests reproducible.
	Seed uint64
	// IngestPath is the peers' ingest route (default "/v1/ingest").
	IngestPath string
	// Encoding is the batch wire encoding (default binary).
	Encoding Encoding
	// Telemetry, when non-nil, receives the client's retry, rejection and
	// per-peer routing counters.
	Telemetry *telemetry.Registry
}

// ClientStats is a point-in-time copy of the client's counters.
type ClientStats struct {
	Events         int64 // trace events routed
	Batches        int64 // batches delivered
	Retries        int64 // re-sent batches (any retryable failure)
	Rejected       int64 // 429 responses observed
	DroppedBatches int64 // batches abandoned after MaxRetries
	CorruptDropped int64 // records dropped while transcoding between encodings
}

// Client is the fleet-uplink side of the cluster: it routes each vehicle's
// trace — NDJSON or binary, sniffed per blob — to the ring owner, buffers
// per peer in the configured wire encoding, and delivers batches with
// bounded, jittered, server-hint-aware retries. Safe for concurrent use
// by many uplink workers.
type Client struct {
	ring   *Ring
	opts   ClientOptions
	format trace.Format // wire encoding of every batch, fixed by opts.Encoding
	bufs   []*peerBuf

	rngMu sync.Mutex
	rng   *sim.RNG

	// sleep is swapped out by tests to observe backoff decisions.
	sleep func(context.Context, time.Duration) error

	events   *telemetry.Counter
	batches  *telemetry.Counter
	retries  *telemetry.Counter
	rejected *telemetry.Counter
	dropped  *telemetry.Counter
	corruptC *telemetry.Counter
	routed   []*telemetry.Counter

	statEvents, statBatches, statRetries, statRejected, statDropped, statCorrupt atomic.Int64
}

type peerBuf struct {
	mu     sync.Mutex
	buf    bytes.Buffer // record bytes only: binary batches get their header at send time
	events int64
}

// take drains the buffer into a send-ready batch under pb.mu.
func (pb *peerBuf) take() (payload []byte, events int64) {
	payload = append([]byte(nil), pb.buf.Bytes()...)
	events = pb.events
	pb.buf.Reset()
	pb.events = 0
	return payload, events
}

// NewClient builds a client over the ring.
func NewClient(ring *Ring, opts ClientOptions) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = 256 << 10
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 5
	}
	if opts.BaseBackoff <= 0 {
		opts.BaseBackoff = 50 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 5 * time.Second
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.IngestPath == "" {
		opts.IngestPath = "/v1/ingest"
	}
	c := &Client{
		ring:   ring,
		opts:   opts,
		format: trace.FormatBinary,
		bufs:   make([]*peerBuf, len(ring.peers)),
		rng:    sim.NewRNG(opts.Seed),
		sleep:  sleepCtx,

		events:   opts.Telemetry.Counter("cluster.client.events"),
		batches:  opts.Telemetry.Counter("cluster.client.batches"),
		retries:  opts.Telemetry.Counter("cluster.client.retries"),
		rejected: opts.Telemetry.Counter("cluster.client.rejected"),
		dropped:  opts.Telemetry.Counter("cluster.client.dropped_batches"),
		corruptC: opts.Telemetry.Counter("cluster.client.corrupt_dropped"),
	}
	if opts.Encoding == EncodingNDJSON {
		c.format = trace.FormatNDJSON
	}
	for i := range c.bufs {
		c.bufs[i] = &peerBuf{}
		c.routed = append(c.routed, opts.Telemetry.Counter("cluster.route."+c.ring.peers[i]))
	}
	return c
}

// Ring returns the routing ring the client was built over.
func (c *Client) Ring() *Ring { return c.ring }

// AddTrace routes one vehicle's trace blob — NDJSON or binary, sniffed
// from its first bytes — to its owning peer's buffer, flushing that peer
// when the batch limit is reached. The blob is converted once, at
// admission, into the client's wire encoding; an NDJSON blob on an
// NDJSON client passes through byte-for-byte (missing trailing newline
// repaired), exactly as the pre-binary client did.
func (c *Client) AddTrace(ctx context.Context, vehicle int, blob []byte) error {
	if len(blob) == 0 {
		return nil
	}
	peer := c.ring.OwnerIndex(vehicle)
	pb := c.bufs[peer]

	var body []byte
	var events int64
	addNewline := false
	switch {
	case c.format == trace.FormatNDJSON && !trace.HasBinaryHeader(blob):
		body = blob
		events = int64(bytes.Count(blob, []byte{'\n'}))
		if blob[len(blob)-1] != '\n' {
			events++
			addNewline = true
		}
	case c.format == trace.FormatBinary && trace.HasBinaryHeader(blob):
		records, rbody, err := trace.ScanBinary(blob)
		if err != nil {
			return fmt.Errorf("cluster: vehicle %d trace: %w", vehicle, err)
		}
		body, events = rbody, int64(records)
	default: // cross-encoding: transcode the vehicle blob once
		out, n, corrupt, err := trace.TranscodeBytes(blob, c.format)
		if err != nil {
			return fmt.Errorf("cluster: vehicle %d trace: %w", vehicle, err)
		}
		if corrupt > 0 {
			c.corruptC.Add(int64(corrupt))
			c.statCorrupt.Add(int64(corrupt))
		}
		events = int64(n)
		body = out
		if c.format == trace.FormatBinary {
			_, body, _ = trace.ScanBinary(out) // strip the stream header: buffers hold records only
		}
	}
	if events == 0 {
		return nil
	}
	c.routed[peer].Inc()
	c.events.Add(events)
	c.statEvents.Add(events)

	var payload []byte
	var batchEvents int64
	pb.mu.Lock()
	pb.buf.Write(body)
	if addNewline {
		pb.buf.WriteByte('\n')
	}
	pb.events += events
	if pb.buf.Len() >= c.opts.MaxBatchBytes {
		payload, batchEvents = pb.take()
	}
	pb.mu.Unlock()

	if payload == nil {
		return nil
	}
	return c.send(ctx, peer, payload, batchEvents)
}

// Flush delivers every peer's buffered remainder. Call it once the event
// source is drained; per-peer failures are joined into one error.
func (c *Client) Flush(ctx context.Context) error {
	var errs []error
	for i, pb := range c.bufs {
		pb.mu.Lock()
		var payload []byte
		var events int64
		if pb.buf.Len() > 0 {
			payload, events = pb.take()
		}
		pb.mu.Unlock()
		if payload != nil {
			if err := c.send(ctx, i, payload, events); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

// Stats returns the client's delivery counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Events:         c.statEvents.Load(),
		Batches:        c.statBatches.Load(),
		Retries:        c.statRetries.Load(),
		Rejected:       c.statRejected.Load(),
		DroppedBatches: c.statDropped.Load(),
		CorruptDropped: c.statCorrupt.Load(),
	}
}

// send delivers one batch of buffered records to one peer with bounded
// retries. 429 and 5xx are retryable (the former on the server's
// Retry-After schedule); other 4xx, 415 included, are permanent.
func (c *Client) send(ctx context.Context, peer int, records []byte, events int64) error {
	url := c.ring.peers[peer] + c.opts.IngestPath
	payload := records
	if c.format == trace.FormatBinary {
		payload = append(trace.AppendHeader(nil), records...)
	}
	for attempt := 0; ; attempt++ {
		hint, err := c.post(ctx, url, payload)
		if err == nil {
			c.batches.Inc()
			c.statBatches.Add(1)
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) || ctx.Err() != nil {
			c.dropped.Inc()
			c.statDropped.Add(1)
			return fmt.Errorf("cluster: peer %s: %w", c.ring.peers[peer], err)
		}
		if attempt >= c.opts.MaxRetries {
			c.dropped.Inc()
			c.statDropped.Add(1)
			return fmt.Errorf("cluster: peer %s: %d events dropped after %d attempts: %w",
				c.ring.peers[peer], events, attempt+1, err)
		}
		c.retries.Inc()
		c.statRetries.Add(1)
		if err := c.sleep(ctx, c.backoff(attempt, hint)); err != nil {
			c.dropped.Inc()
			c.statDropped.Add(1)
			return fmt.Errorf("cluster: peer %s: %w", c.ring.peers[peer], err)
		}
	}
}

// permanentError marks a response no retry can fix.
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// post performs one attempt. It returns the server's Retry-After hint (0
// when absent) alongside a retryable or permanent error.
func (c *Client) post(ctx context.Context, url string, payload []byte) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return 0, &permanentError{msg: err.Error()}
	}
	if c.format == trace.FormatBinary {
		req.Header.Set("Content-Type", trace.ContentTypeBinary)
	} else {
		req.Header.Set("Content-Type", trace.ContentTypeNDJSON)
	}
	resp, err := c.opts.HTTPClient.Do(req)
	if err != nil {
		return 0, err // network failure: retryable
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK:
		return 0, nil
	case resp.StatusCode == http.StatusTooManyRequests:
		c.rejected.Inc()
		c.statRejected.Add(1)
		var hint time.Duration
		if s := resp.Header.Get("Retry-After"); s != "" {
			if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
				hint = time.Duration(secs) * time.Second
			}
		}
		return hint, fmt.Errorf("ingest rejected (429)")
	case resp.StatusCode >= 500:
		return 0, fmt.Errorf("server error %d", resp.StatusCode)
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, &permanentError{msg: fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))}
	}
}

// backoff computes the wait before retry #attempt: exponential from
// BaseBackoff, raised to the server's hint when larger, capped at
// MaxBackoff, with ±25 % jitter so a fleet of stalled uplinks does not
// retry in lockstep.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	d := c.opts.BaseBackoff << uint(attempt)
	if d <= 0 || d > c.opts.MaxBackoff { // <<-overflow guards included
		d = c.opts.MaxBackoff
	}
	if hint > d {
		d = hint
	}
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	c.rngMu.Lock()
	jitter := 0.75 + 0.5*c.rng.Float64()
	c.rngMu.Unlock()
	return time.Duration(float64(d) * jitter)
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
