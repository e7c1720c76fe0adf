// Package crystal holds the parts of Crystal, Rock's distributed file
// system (paper §5.1), that the engine runs on, in-process: a consistent
// hash ring assigning data objects and compute nodes to positions on a
// virtual ring (nodes hashed by CRC-32 of their address), the
// dictionary-encoded columns with their kernels, and the work-unit
// scheduler of §5.2 with cost estimation and work stealing.
//
// Substitution note (DESIGN.md): the real Crystal spans a Kubernetes
// cluster; this in-process version preserves the placement and scheduling
// behaviour — remapping minimality on node churn, load balancing — which
// is what the scalability experiments exercise.
package crystal

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"
)

// Ring is a consistent hash ring. Each node occupies `replicas` virtual
// positions; objects map to the first node clockwise from their hash.
type Ring struct {
	mu       sync.RWMutex
	replicas int
	points   []uint32          // sorted virtual positions
	owner    map[uint32]string // position -> node
	nodes    map[string]bool
}

// NewRing creates a ring with the given number of virtual positions per
// node (16–128 is typical; more positions smooth the distribution).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = 32
	}
	return &Ring{
		replicas: replicas,
		owner:    make(map[uint32]string),
		nodes:    make(map[string]bool),
	}
}

// hashNode follows the paper: node addresses hash with standard CRC-32.
func hashNode(addr string, i int) uint32 {
	return crc32.ChecksumIEEE([]byte(fmt.Sprintf("%s#%d", addr, i)))
}

// HashObject hashes a data-object key onto the ring. The paper uses a
// self-defined function based on spectral clustering so that similar
// objects co-locate; we approximate the co-location property by hashing
// the object's cluster prefix (text before the first '/') rather than the
// full key, so callers can group objects via key naming.
func HashObject(key string) uint32 {
	prefix := key
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			prefix = key[:i]
			break
		}
	}
	return crc32.ChecksumIEEE([]byte(prefix))<<8 ^ crc32.ChecksumIEEE([]byte(key))>>24
}

// AddNode registers a node; it reports whether the node was new.
func (r *Ring) AddNode(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[addr] {
		return false
	}
	r.nodes[addr] = true
	for i := 0; i < r.replicas; i++ {
		p := hashNode(addr, i)
		if _, taken := r.owner[p]; taken {
			continue // vanishingly rare collision: first owner keeps it
		}
		r.owner[p] = addr
		r.points = append(r.points, p)
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i] < r.points[j] })
	return true
}

// Owner returns the node owning the object key, or "" when the ring is
// empty.
func (r *Ring) Owner(key string) string {
	return r.OwnerOfHash(HashObject(key))
}

// OwnerOfHash returns the node owning a precomputed hash position.
func (r *Ring) OwnerOfHash(h uint32) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.owner[r.points[i]]
}
