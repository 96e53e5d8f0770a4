package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"

	"github.com/uei-db/uei/internal/chunkstore"
	"github.com/uei-db/uei/internal/grid"
	"github.com/uei-db/uei/internal/obs"
	"github.com/uei-db/uei/internal/shard"
)

// Client speaks the wire protocol to one worker endpoint. It is shared by
// every ShardClient pointed at that worker.
type Client struct {
	base string
	http *http.Client
}

// NewClient dials nothing — it just records the endpoint. An endpoint
// without a scheme gets "http://".
func NewClient(endpoint string, hc *http.Client) *Client {
	if hc == nil {
		// No client-wide timeout: the coordinator's per-attempt deadline
		// governs, and a blanket timeout would break long traced sessions.
		hc = &http.Client{}
	}
	return &Client{base: normalizeEndpoint(endpoint), http: hc}
}

// Endpoint returns the normalized base URL.
func (c *Client) Endpoint() string { return c.base }

func normalizeEndpoint(ep string) string {
	if !strings.Contains(ep, "://") {
		ep = "http://" + ep
	}
	return strings.TrimRight(ep, "/")
}

// Meta fetches the worker's store identity (GET /v1/meta).
func (c *Client) Meta(ctx context.Context) (MetaResponse, error) {
	var meta MetaResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/meta", nil)
	if err != nil {
		return meta, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return meta, fmt.Errorf("worker %s: %w", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return meta, fmt.Errorf("worker %s: meta: %s", c.base, readError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		return meta, fmt.Errorf("worker %s: decoding meta: %w", c.base, err)
	}
	if meta.Manifest == nil {
		return meta, fmt.Errorf("worker %s: meta has no manifest", c.base)
	}
	if len(meta.ShardBytes) != meta.Manifest.Shards {
		return meta, fmt.Errorf("worker %s: meta lists %d shard sizes for %d shards", c.base, len(meta.ShardBytes), meta.Manifest.Shards)
	}
	return meta, nil
}

// ShardClient is the remote shard.Backend: one shard on one worker. Its
// I/O counters meter wire traffic (response payload bytes, request
// count), the remote analogue of the local backend's disk counters.
type ShardClient struct {
	c          *Client
	shard      int
	totalBytes int64
	bytesRead  atomic.Int64
	requests   atomic.Int64
}

// NewShardClient binds a client to one shard. totalBytes is the shard's
// on-disk payload from the worker's meta response.
func NewShardClient(c *Client, shard int, totalBytes int64) *ShardClient {
	return &ShardClient{c: c, shard: shard, totalBytes: totalBytes}
}

// Endpoint returns the worker this backend talks to.
func (b *ShardClient) Endpoint() string { return b.c.base }

// post runs one shard operation round trip. The caller's trace id rides
// the TraceHeader so worker logs correlate with the session's spans, and
// ctx cancellation (per-attempt deadline, hedged-loser cancel) aborts the
// request in flight.
func post[Req, Resp any](ctx context.Context, b *ShardClient, op string, reqBody Req) (Resp, error) {
	var out Resp
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return out, fmt.Errorf("encoding %s request: %w", op, err)
	}
	url := fmt.Sprintf("%s/v1/shards/%d/%s", b.c.base, b.shard, op)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tid := obs.TraceFromContext(ctx).ID(); tid != "" {
		req.Header.Set(TraceHeader, tid)
	}
	b.requests.Add(1)
	resp, err := b.c.http.Do(req)
	if err != nil {
		// Surface the context's own error so deadline/cancellation
		// classification (shardOutcome, degradation cause split) keeps
		// working across the transport.
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		return out, fmt.Errorf("worker %s shard %d %s: %w", b.c.base, b.shard, op, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes))
	b.bytesRead.Add(int64(len(body)))
	if err != nil {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		return out, fmt.Errorf("worker %s shard %d %s: reading response: %w", b.c.base, b.shard, op, err)
	}
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = e.Error
		}
		return out, fmt.Errorf("worker %s shard %d %s: %s: %s", b.c.base, b.shard, op, resp.Status, msg)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("worker %s shard %d %s: decoding response: %w", b.c.base, b.shard, op, err)
	}
	return out, nil
}

// LoadCell implements shard.Backend.
func (b *ShardClient) LoadCell(ctx context.Context, cell grid.CellID) ([]uint32, [][]float64, int, error) {
	resp, err := post[LoadRequest, LoadResponse](ctx, b, shard.OpLoad, LoadRequest{Cell: cell})
	if err != nil {
		return nil, nil, 0, err
	}
	if len(resp.IDs) != len(resp.Vals) {
		return nil, nil, 0, fmt.Errorf("worker %s shard %d load: %d ids but %d value rows", b.c.base, b.shard, len(resp.IDs), len(resp.Vals))
	}
	return resp.IDs, resp.Vals, resp.Entries, nil
}

// FetchRows implements shard.Backend.
func (b *ShardClient) FetchRows(ctx context.Context, ids []uint32) ([]chunkstore.MergedRow, error) {
	resp, err := post[FetchRequest, FetchResponse](ctx, b, shard.OpFetch, FetchRequest{IDs: ids})
	if err != nil {
		return nil, err
	}
	return resp.Rows, nil
}

// Retrieve implements shard.Backend. The caller indexes the returned
// blocks, so a part whose ids, header and backing array disagree is an
// error here rather than a panic there.
func (b *ShardClient) Retrieve(ctx context.Context, marked [][]bool) ([]shard.RetrievedPart, int, error) {
	resp, err := post[RetrieveRequest, RetrieveResponse](ctx, b, shard.OpRetrieve, RetrieveRequest{Marked: marked})
	if err != nil {
		return nil, 0, err
	}
	for i := range resp.Parts {
		if err := resp.Parts[i].Check(len(marked)); err != nil {
			return nil, 0, fmt.Errorf("worker %s shard %d retrieve: part %d: %w", b.c.base, b.shard, i, err)
		}
	}
	return resp.Parts, resp.Entries, nil
}

// Stats implements shard.Backend with wire counters.
func (b *ShardClient) Stats() shard.BackendStats {
	return shard.BackendStats{
		BytesRead:  b.bytesRead.Load(),
		ChunksRead: b.requests.Load(),
		TotalBytes: b.totalBytes,
	}
}

// ResetIOStats implements shard.Backend.
func (b *ShardClient) ResetIOStats() {
	b.bytesRead.Store(0)
	b.requests.Store(0)
}

// ConnectOptions configures Connect.
type ConnectOptions struct {
	// Endpoints lists the worker base URLs (scheme optional). Order does
	// not affect placement — the consistent-hash ring is keyed by name.
	Endpoints []string
	// Replication is the per-shard replica count (distinct endpoints);
	// zero means 1.
	Replication int
	// CoordinatorOptions carries the scoring pool (the symbolic index is
	// scored in this process, never on a worker), the per-shard deadline
	// and the hedge delay.
	shard.CoordinatorOptions
	// HTTPClient overrides the shared transport (nil uses a default
	// client with no blanket timeout).
	HTTPClient *http.Client
}

// Connect performs the fleet handshake and assembles a replicated
// coordinator over remote backends: fetch /v1/meta from every endpoint,
// require a single store identity across the fleet, place shards on
// endpoints by consistent hashing, and wire one ShardClient per (shard,
// endpoint) assignment.
func Connect(ctx context.Context, opts ConnectOptions) (*shard.Coordinator, error) {
	if len(opts.Endpoints) == 0 {
		return nil, fmt.Errorf("remote: no endpoints")
	}
	endpoints := make([]string, len(opts.Endpoints))
	for i, ep := range opts.Endpoints {
		endpoints[i] = normalizeEndpoint(ep)
	}
	clients := make([]*Client, len(endpoints))
	var ref MetaResponse
	var refJSON []byte
	for i, ep := range endpoints {
		clients[i] = NewClient(ep, opts.HTTPClient)
		meta, err := clients[i].Meta(ctx)
		if err != nil {
			return nil, err
		}
		mj, err := json.Marshal(meta)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			ref, refJSON = meta, mj
			continue
		}
		if !bytes.Equal(mj, refJSON) {
			return nil, fmt.Errorf("remote: workers disagree on the store: %s and %s serve different manifests", endpoints[0], ep)
		}
	}
	rep := opts.Replication
	if rep < 1 {
		rep = 1
	}
	placement, err := shard.PlaceReplicas(ref.Manifest.Shards, endpoints, rep)
	if err != nil {
		return nil, err
	}
	replicas := make([][]shard.Backend, ref.Manifest.Shards)
	for s, eps := range placement {
		for _, e := range eps {
			replicas[s] = append(replicas[s], NewShardClient(clients[e], s, ref.ShardBytes[s]))
		}
	}
	return shard.NewCoordinator(ref.Manifest, replicas, opts.CoordinatorOptions)
}

// readError extracts the error body of a non-2xx response.
func readError(resp *http.Response) string {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var e ErrorResponse
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return resp.Status + ": " + e.Error
	}
	return resp.Status + ": " + strings.TrimSpace(string(body))
}
