package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"acedo/internal/server/cluster"
	"acedo/internal/server/store"
)

// This file is the server half of the cluster plane: submit
// forwarding, cross-node job proxying, the peer-store endpoint, and
// result adoption. Every entry point starts with a nil test on
// s.cluster, so a single-node daemon pays one branch and behaves
// byte-identically to one built before clustering existed.

// splitJobID splits a node-qualified job ID ("j3@node-a") into its
// local ID and node; an unqualified ID comes back with node == "" —
// the local case. The split is on the last '@' so node IDs themselves
// may not contain one (cmd/acelabd rejects those at startup).
func splitJobID(id string) (local, node string) {
	if i := strings.LastIndexByte(id, '@'); i >= 0 {
		return id[:i], id[i+1:]
	}
	return id, ""
}

// qualifyStatus rewrites a peer-owned job's status document for a
// client talking to this node: the ID gains its @node suffix and the
// sub-resource URLs follow, so every later poll through any cluster
// member routes back to the owning node.
func qualifyStatus(st *JobStatus, node string) {
	st.ID += "@" + node
	st.EventsURL = "/v1/jobs/" + st.ID + "/events"
	if st.ResultURL != "" {
		st.ResultURL = "/v1/jobs/" + st.ID + "/result"
	}
}

// cachedLocally reports whether hash's result is already on this node
// (memory or disk tier), without counting cache traffic — the caller
// is deciding whether to forward, not serving yet.
func (s *Server) cachedLocally(hash string) bool {
	if s.cache.peek(hash) != nil {
		return true
	}
	return s.store != nil && s.store.Has(hash)
}

// forwardIfRemote routes a submission to its hash-owner when this
// node is not it. It reports true when it wrote the response (the
// owner answered, whatever the status — 202, a cache-hit 200, a 429
// relayed verbatim with its Retry-After) and false when the caller
// should proceed locally: single-node mode, this node owns the hash,
// the request is already a forward (never re-forwarded — loop
// prevention), the result is already cached here, or the owner is
// unreachable after retries (degraded mode: local execution is
// slower and caches redundantly, but never wrong and never refused).
func (s *Server) forwardIfRemote(w http.ResponseWriter, r *http.Request, spec JobSpec, hash string) bool {
	if s.cluster == nil {
		return false
	}
	if origin := r.Header.Get(cluster.ForwardedHeader); origin != "" {
		s.metrics.forwardIn()
		s.logf("forward received from %s (%s)", origin, shortHash(hash))
		return false
	}
	owner := s.cluster.Owner(hash)
	if owner == s.cluster.Self() || s.cachedLocally(hash) {
		return false
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return false
	}
	code, header, body, err := s.cluster.ForwardSubmit(owner, specJSON)
	if err != nil {
		s.metrics.forwardFailed()
		s.logf("forward %s to %s failed, executing locally: %v", shortHash(hash), owner, err)
		return false
	}
	s.metrics.forwardOut()
	s.logf("forwarded %s to owner %s: %d", shortHash(hash), owner, code)
	if ra := header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	// A 200/202 carries the owner's status document: re-qualify its
	// ID and URLs so the client's polling stays valid through this
	// node. Anything else (429, 503, ...) relays verbatim — the
	// client's own backoff loop handles it.
	if code == http.StatusOK || code == http.StatusAccepted {
		var st JobStatus
		if json.Unmarshal(body, &st) == nil && st.ID != "" {
			qualifyStatus(&st, owner)
			writeJSON(w, code, st)
			return true
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
	return true
}

// proxyJob serves a job route whose ID names another node by proxying
// there, reporting true when it handled the request. Status-shaped
// responses are re-qualified (so polling keeps working through this
// node); result bytes and event streams relay verbatim — byte
// identity of results is part of the cache contract. An unreachable
// owner answers 502: the job's state lives there, and guessing would
// be worse than failing.
func (s *Server) proxyJob(w http.ResponseWriter, r *http.Request, subpath string) bool {
	if s.cluster == nil {
		return false
	}
	local, node := splitJobID(r.PathValue("id"))
	if node == "" || node == s.cluster.Self() {
		return false
	}
	if s.cluster.URL(node) == "" {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown cluster node %q", node))
		return true
	}
	path := "/v1/jobs/" + local + subpath
	if q := r.URL.RawQuery; q != "" {
		path += "?" + q
	}
	resp, err := s.cluster.Do(r.Method, node, path, subpath == "/events")
	if err != nil {
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("job %s lives on %s, which is unreachable: %v", local, node, err))
		return true
	}
	defer resp.Body.Close()
	if subpath == "" && resp.StatusCode < 300 {
		var st JobStatus
		if json.NewDecoder(resp.Body).Decode(&st) == nil && st.ID != "" {
			qualifyStatus(&st, node)
			writeJSON(w, resp.StatusCode, st)
			return true
		}
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("node %s answered job %s with an unreadable status", node, local))
		return true
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	copyFlush(w, resp.Body)
	return true
}

// copyBufs recycles copyFlush's 32 KiB buffers: every proxied request
// streams through one, and a fresh buffer per request was steady
// garbage on a forwarding node.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// copyFlush relays a proxied body, flushing after every read so a
// followed event stream reaches the client as it is produced rather
// than when the job finishes.
func copyFlush(w http.ResponseWriter, r io.Reader) {
	flusher, _ := w.(http.Flusher)
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	for {
		n, err := r.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleClusterStore is GET /v1/cluster/store/{hash}: the peer-store
// endpoint. It serves the store-format encoded entry for one hash —
// the durable file's exact bytes when a disk tier exists, or the
// memory-cached entry encoded in the same framing — so an adopting
// peer validates every payload identically. 404 for hashes this node
// has not finished. The memory lookup uses peek: a peer probing this
// node's cache must not perturb its hit/miss counters.
func (s *Server) handleClusterStore(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	var payload []byte
	if s.store != nil {
		if b, ok, err := s.store.Raw(hash); err == nil && ok {
			payload = b
		}
	}
	if payload == nil {
		if e := s.cache.peek(hash); e != nil {
			if meta, err := json.Marshal(e.runs); err == nil {
				payload = store.EncodeEntry(engineVersion(), store.Entry{Result: e.result, Meta: meta})
			}
		}
	}
	if payload == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no stored result for %s", shortHash(hash)))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	w.Write(payload)
}

// adoptFromOwner asks the hash-owner's store for a dequeued job's
// result before executing it, reporting true when the job was
// finished by adoption. Validation happens before anything is
// written or served: a corrupt or torn payload is quarantined (never
// served), a version-skewed one rejected, and either way the job
// falls through to normal execution. An adopted job finalises as a
// cache hit — done, cached, zero wall time, and crucially zero
// instruction accounting, because the instructions were simulated
// once, on the owner.
func (s *Server) adoptFromOwner(j *job) bool {
	if s.cluster == nil {
		return false
	}
	owner := s.cluster.Owner(j.hash)
	if owner == s.cluster.Self() {
		return false
	}
	payload, ok, err := s.cluster.FetchStore(owner, j.hash)
	if err != nil || !ok {
		s.metrics.peerStore(false)
		if err != nil {
			s.logf("job %s: peer store %s: %v", j.id, owner, err)
		}
		return false
	}
	var ent store.Entry
	if s.store != nil {
		// AdoptRaw validates, quarantines corruption, and persists the
		// accepted payload byte-identically.
		ent, err = s.store.AdoptRaw(j.hash, payload)
	} else {
		var ver string
		ent, ver, err = store.DecodeEntry(payload)
		if err == nil && ver != engineVersion() {
			err = fmt.Errorf("engine version mismatch (%q)", ver)
		}
	}
	if err != nil {
		s.metrics.peerStore(false)
		s.logf("job %s: refused peer entry from %s: %v", j.id, owner, err)
		return false
	}
	var runs []RunMeta
	if len(ent.Meta) > 0 {
		if json.Unmarshal(ent.Meta, &runs) != nil {
			runs = nil
		}
	}
	e := &cacheEntry{result: ent.Result, runs: runs}
	s.cache.put(j.hash, e)
	s.markDone(j.hash)
	// Counted before published (see runJob).
	s.metrics.jobAdopted()
	s.metrics.peerStore(true)
	j.mu.Lock()
	j.state = StateDone
	j.cached = true
	j.result = e.result
	j.runs = e.runs
	j.mu.Unlock()
	j.events.close()
	s.logf("job %s: adopted result from %s (%s)", j.id, owner, shortHash(j.hash))
	return true
}
