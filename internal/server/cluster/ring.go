package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over shard base URLs. Each shard
// contributes replicas virtual points; a key is owned by the shard
// whose point follows the key's hash clockwise. Because a shard's
// points depend only on its own URL, adding or removing a shard moves
// only the keys adjacent to that shard's points — every other key
// keeps its owner, which is what keeps the distributed result cache
// warm across fleet changes.
type Ring struct {
	shards []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// replicas is the virtual-node count per shard: enough to keep the
// load split within a few percent of even for small fleets.
const replicas = 128

// NewRing builds a ring over the given shard base URLs.
func NewRing(shards []string) *Ring {
	r := &Ring{shards: append([]string(nil), shards...)}
	for i, s := range shards {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  ringHash(s + "#" + strconv.Itoa(v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// ringHash maps a string to a ring position. SHA-256 (truncated) keeps
// placement stable across processes and Go versions, which matters
// because the distributed cache's warmth depends on every coordinator
// instance agreeing on key→shard.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Sequence returns every shard index in preference order for key: the
// owner first, then each successive distinct shard walking the ring.
// The coordinator routes to the first healthy entry, which is what
// makes failover placement stable too — every key displaced from a
// dead shard lands on that key's unique next-on-ring shard.
func (r *Ring) Sequence(key string) []int {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]int, 0, len(r.shards))
	seen := make([]bool, len(r.shards))
	for i := 0; i < len(r.points) && len(seq) < len(r.shards); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			seq = append(seq, p.shard)
		}
	}
	return seq
}

// Owner returns the owning shard index for key (-1 on an empty ring).
func (r *Ring) Owner(key string) int {
	seq := r.Sequence(key)
	if len(seq) == 0 {
		return -1
	}
	return seq[0]
}
