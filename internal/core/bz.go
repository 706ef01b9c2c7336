package core

import (
	"repro/internal/bucket"
	"repro/internal/graph"
)

// BZ computes the core number of every vertex with the serial
// Batagelj–Zaveršnik bucket-peeling algorithm in O(m + n) time. It is the
// reference oracle the parallel algorithms are tested against.
func BZ(g *graph.Undirected) []int32 {
	n := g.N()
	coreNum := make([]int32, n)
	if n == 0 {
		return coreNum
	}
	q := bucket.New(g.Degrees(), g.MaxDegree())
	// Peeling invariant: when v is extracted with key k, every remaining
	// vertex has current degree >= k, so core(v) = max(k, cores seen so
	// far) — the running max handles keys that dip because a neighbor
	// removal lowered v below the previous peel level.
	var level int32
	for q.Len() > 0 {
		v, k := q.ExtractMin()
		if k > level {
			level = k
		}
		coreNum[v] = level
		for _, u := range g.Neighbors(v) {
			q.Decrement(u)
		}
	}
	return coreNum
}

// KStar returns the maximum entry of a core-number vector (0 for an empty
// graph).
func KStar(coreNum []int32) int32 {
	var k int32
	for _, c := range coreNum {
		if c > k {
			k = c
		}
	}
	return k
}

// KCore returns the vertices of the k-core given a core-number vector: all
// vertices whose core number is at least k.
func KCore(coreNum []int32, k int32) []int32 {
	var out []int32
	for v, c := range coreNum {
		if c >= k {
			out = append(out, int32(v))
		}
	}
	return out
}

// PeelTo returns the vertices of g's k-core in ascending order with one
// queue peel at the single threshold k, O(n + m): repeatedly delete every
// vertex whose remaining degree is below k. A caller that needs one k-core
// pays for this peel, not for every core number. A vertex is deleted
// exactly when its remaining degree first drops below k, so deg[v] < k
// doubles as the deleted mark.
func PeelTo(g *graph.Undirected, k int32) []int32 {
	n := g.N()
	deg := g.Degrees()
	var queue []int32
	for v, d := range deg {
		if d < k {
			queue = append(queue, int32(v))
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, u := range g.Neighbors(queue[i]) {
			if deg[u] < k {
				continue // already deleted
			}
			deg[u]--
			if deg[u] < k {
				queue = append(queue, u)
			}
		}
	}
	out := make([]int32, 0, n-len(queue))
	for v, d := range deg {
		if d >= k {
			out = append(out, int32(v))
		}
	}
	return out
}

// KStarCore returns k* and the vertex set of the k*-core from a core-number
// vector.
func KStarCore(coreNum []int32) (int32, []int32) {
	k := KStar(coreNum)
	return k, KCore(coreNum, k)
}
