package store

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"ringsym/internal/obs"
)

// Peer-hop service totals (the fleet-facing side of the store tier).
var (
	totPeerHits   = obs.NewCounter("ringsym_store_peer_hits_total", "Records fetched from a fleet peer's store.")
	totPeerMisses = obs.NewCounter("ringsym_store_peer_misses_total", "Peer lookups where no configured peer had the record.")
)

// negCacheCap bounds the negative-lookup set.  At capacity the whole set is
// cleared rather than aged out: suppression needs no TTL because a key that
// missed every peer is computed locally right after, so its suppression
// entry stops mattering — the set exists only to stop a cold fleet from
// re-asking its peers for every scenario of the same sweep.
const negCacheCap = 1 << 16

// Peers fetches store records from fleet peers over ringd's
// GET /v1/cache/<key> endpoint.  The peer hop sits between the local disk
// tier and a compute: one cheap HTTP GET per peer, first hit wins, and a
// fleet-wide miss is remembered (negative-lookup suppression) so concurrent
// cold nodes don't storm each other.  The zero value is unusable; construct
// with NewPeers.  All methods are safe for concurrent use.
type Peers struct {
	self   string // own advertise URL, excluded from the fetch fan-out
	client *http.Client

	mu    sync.RWMutex
	addrs []string            // peer base URLs, e.g. "http://host:port"
	neg   map[string]struct{} // keys every current peer has missed
}

// NewPeers returns a peer fetcher that excludes self (its own advertise URL,
// "" when unknown) from every fan-out.  Its HTTP client has a 2-second
// overall timeout: a slow peer must cost less than the compute it would save.
func NewPeers(self string) *Peers {
	return &Peers{
		self:   canonAddr(self),
		client: &http.Client{Timeout: 2 * time.Second},
		neg:    make(map[string]struct{}),
	}
}

// canonAddr normalises a peer address to a base URL with a scheme and no
// trailing slash, so roster entries ("127.0.0.1:8931") and advertise URLs
// ("http://127.0.0.1:8931/") compare equal.
func canonAddr(addr string) string {
	if addr == "" {
		return ""
	}
	for len(addr) > 0 && addr[len(addr)-1] == '/' {
		addr = addr[:len(addr)-1]
	}
	if u, err := url.Parse(addr); err == nil && u.Scheme != "" {
		return addr
	}
	return "http://" + addr
}

// Set replaces the peer list (deduplicated, self excluded) and clears the
// negative-lookup set: a changed roster may hold keys every old peer
// missed.  An unchanged roster is a no-op — fleet heartbeats re-announce
// the same peers every few seconds, and re-clearing the suppression set on
// each would defeat it.
func (p *Peers) Set(addrs []string) {
	seen := make(map[string]struct{}, len(addrs))
	clean := make([]string, 0, len(addrs))
	for _, a := range addrs {
		c := canonAddr(a)
		if c == "" || c == p.self {
			continue
		}
		if _, dup := seen[c]; dup {
			continue
		}
		seen[c] = struct{}{}
		clean = append(clean, c)
	}
	p.mu.Lock()
	if !slices.Equal(clean, p.addrs) {
		p.addrs = clean
		p.neg = make(map[string]struct{})
	}
	p.mu.Unlock()
}

// Fetch asks each peer in roster order for key and returns the first hit's
// body.  A fleet-wide miss is suppressed: until the roster changes (or the
// suppression set fills and is cleared), re-fetching the same key returns
// false without network traffic.  Errors are treated as misses — a dead
// peer must never block the compute path.
func (p *Peers) Fetch(ctx context.Context, key string) ([]byte, bool) {
	p.mu.RLock()
	addrs := p.addrs
	_, suppressed := p.neg[key]
	p.mu.RUnlock()
	if len(addrs) == 0 || suppressed {
		return nil, false
	}
	for _, addr := range addrs {
		if body, ok := p.fetchOne(ctx, addr, key); ok {
			totPeerHits.Note(obs.StorePeerHit)
			return body, true
		}
		if ctx.Err() != nil {
			// Cancelled, not missed: don't poison the suppression set.
			return nil, false
		}
	}
	p.mu.Lock()
	if len(p.neg) >= negCacheCap {
		p.neg = make(map[string]struct{})
	}
	p.neg[key] = struct{}{}
	p.mu.Unlock()
	totPeerMisses.Note(obs.StorePeerMiss)
	return nil, false
}

// fetchOne performs one GET against one peer.
func (p *Peers) fetchOne(ctx context.Context, addr, key string) ([]byte, bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/cache/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxValLen+1))
	if err != nil || len(body) == 0 || len(body) > maxValLen {
		return nil, false
	}
	return body, true
}
