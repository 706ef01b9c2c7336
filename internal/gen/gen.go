package gen

import (
	"math"
	"math/rand"

	"repro/internal/graph"
)

// ErdosRenyi returns a G(n, m)-style random undirected graph: m edge slots
// drawn uniformly with replacement (duplicates and loops are dropped by the
// builder, so the realized edge count is slightly below m on dense draws).
func ErdosRenyi(n int, m int64, seed int64) *graph.Undirected {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, 0, m)
	for i := int64(0); i < m; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return graph.NewUndirected(n, edges)
}

// ErdosRenyiDirected is the directed analogue of ErdosRenyi.
func ErdosRenyiDirected(n int, m int64, seed int64) *graph.Directed {
	rng := rand.New(rand.NewSource(seed))
	arcs := make([]graph.Edge, 0, m)
	for i := int64(0); i < m; i++ {
		arcs = append(arcs, graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))})
	}
	return graph.NewDirected(n, arcs)
}

// powerLawWeights returns n weights w_i ∝ (i+1)^(-1/(β-1)) scaled so they
// sum to targetSum, the standard Chung–Lu recipe for a degree exponent β.
func powerLawWeights(n int, beta float64, targetSum float64) []float64 {
	w := make([]float64, n)
	exp := -1.0 / (beta - 1.0)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), exp)
		sum += w[i]
	}
	scale := targetSum / sum
	for i := range w {
		w[i] *= scale
	}
	return w
}

// weightSampler draws vertices with probability proportional to the given
// weights in O(log n) via a prefix-sum and binary search.
type weightSampler struct {
	prefix []float64
	rng    *rand.Rand
}

func newWeightSampler(w []float64, rng *rand.Rand) *weightSampler {
	prefix := make([]float64, len(w)+1)
	for i, x := range w {
		prefix[i+1] = prefix[i] + x
	}
	return &weightSampler{prefix: prefix, rng: rng}
}

func (s *weightSampler) sample() int32 {
	x := s.rng.Float64() * s.prefix[len(s.prefix)-1]
	lo, hi := 0, len(s.prefix)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if s.prefix[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return int32(lo)
}

// ChungLu returns an undirected power-law graph with ~m edges and degree
// exponent beta (typically 2.1–2.8 for web/social graphs): both endpoints
// of each edge are drawn proportionally to power-law weights.
func ChungLu(n int, m int64, beta float64, seed int64) *graph.Undirected {
	rng := rand.New(rand.NewSource(seed))
	w := powerLawWeights(n, beta, float64(2*m))
	s := newWeightSampler(w, rng)
	edges := make([]graph.Edge, 0, m)
	for i := int64(0); i < m; i++ {
		edges = append(edges, graph.Edge{U: s.sample(), V: s.sample()})
	}
	return graph.NewUndirected(n, edges)
}

// ChungLuDirected returns a directed power-law graph with ~m arcs. The out-
// and in-degree sequences follow independent power laws with exponents
// betaOut and betaIn; a smaller betaIn yields heavier in-degree hubs, which
// reproduces the strong d⁺max ≪ d⁻max asymmetry of the paper's AM/BA/WE
// datasets.
func ChungLuDirected(n int, m int64, betaOut, betaIn float64, seed int64) *graph.Directed {
	rng := rand.New(rand.NewSource(seed))
	so := newWeightSampler(powerLawWeights(n, betaOut, float64(m)), rng)
	si := newWeightSampler(powerLawWeights(n, betaIn, float64(m)), rng)
	arcs := make([]graph.Edge, 0, m)
	for i := int64(0); i < m; i++ {
		arcs = append(arcs, graph.Edge{U: so.sample(), V: si.sample()})
	}
	return graph.NewDirected(n, arcs)
}

// BarabasiAlbert returns a preferential-attachment graph: vertices arrive
// one by one and attach k edges to existing vertices chosen proportionally
// to degree (implemented with the repeated-endpoint trick).
func BarabasiAlbert(n, k int, seed int64) *graph.Undirected {
	if n < 2 {
		return graph.NewUndirected(n, nil)
	}
	rng := rand.New(rand.NewSource(seed))
	// targets holds one entry per edge endpoint, so uniform draws from it
	// are degree-proportional draws.
	targets := make([]int32, 0, 2*n*k)
	edges := make([]graph.Edge, 0, n*k)
	targets = append(targets, 0)
	for v := int32(1); int(v) < n; v++ {
		deg := k
		if int(v) < k {
			deg = int(v)
		}
		for j := 0; j < deg; j++ {
			t := targets[rng.Intn(len(targets))]
			edges = append(edges, graph.Edge{U: v, V: t})
			targets = append(targets, t)
		}
		for j := 0; j < deg; j++ {
			targets = append(targets, v)
		}
	}
	return graph.NewUndirected(n, edges)
}

// RMAT returns a recursive-matrix graph with 2^scale vertices and ~m edges,
// using the standard (a, b, c, d) quadrant probabilities. The classic
// Graph500 parameters (0.57, 0.19, 0.19, 0.05) give the skewed, clustered
// structure of web crawls such as it-2004/sk-2005/uk-union.
func RMAT(scale int, m int64, a, b, c float64, seed int64) []graph.Edge {
	rng := rand.New(rand.NewSource(seed))
	n := 1 << scale
	edges := make([]graph.Edge, 0, m)
	for i := int64(0); i < m; i++ {
		u, v := 0, 0
		for bit := n >> 1; bit > 0; bit >>= 1 {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= bit
			case r < a+b+c:
				u |= bit
			default:
				u |= bit
				v |= bit
			}
		}
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
	}
	return edges
}

// RMATUndirected materializes RMAT edges as an undirected graph.
func RMATUndirected(scale int, m int64, a, b, c float64, seed int64) *graph.Undirected {
	return graph.NewUndirected(1<<scale, RMAT(scale, m, a, b, c, seed))
}

// RMATDirected materializes RMAT edges as a digraph.
func RMATDirected(scale int, m int64, a, b, c float64, seed int64) *graph.Directed {
	return graph.NewDirected(1<<scale, RMAT(scale, m, a, b, c, seed))
}

// PlantClique returns a copy of g with a clique planted on `size` random
// vertices, plus the planted vertex set. With size large enough the clique
// becomes the densest subgraph — the standard way to build UDS instances
// with a known answer.
func PlantClique(g *graph.Undirected, size int, seed int64) (*graph.Undirected, []int32) {
	rng := rand.New(rand.NewSource(seed))
	n := g.N()
	if size > n {
		size = n
	}
	perm := rng.Perm(n)
	planted := make([]int32, size)
	for i := 0; i < size; i++ {
		planted[i] = int32(perm[i])
	}
	edges := g.Edges()
	for i := 0; i < size; i++ {
		for j := i + 1; j < size; j++ {
			edges = append(edges, graph.Edge{U: planted[i], V: planted[j]})
		}
	}
	return graph.NewUndirected(n, edges), planted
}

// PlantBiclique returns a copy of d with a complete bipartite pattern S×T
// planted on random disjoint vertex sets, plus the planted sets. It builds
// DDS instances with a known dense (S, T) pair: ρ(S,T) = √(|S||T|).
func PlantBiclique(d *graph.Directed, sizeS, sizeT int, seed int64) (*graph.Directed, []int32, []int32) {
	rng := rand.New(rand.NewSource(seed))
	n := d.N()
	if sizeS+sizeT > n {
		sizeS = n / 2
		sizeT = n - sizeS
	}
	perm := rng.Perm(n)
	s := make([]int32, sizeS)
	t := make([]int32, sizeT)
	for i := 0; i < sizeS; i++ {
		s[i] = int32(perm[i])
	}
	for i := 0; i < sizeT; i++ {
		t[i] = int32(perm[sizeS+i])
	}
	arcs := d.Arcs()
	for _, u := range s {
		for _, v := range t {
			arcs = append(arcs, graph.Edge{U: u, V: v})
		}
	}
	return graph.NewDirected(n, arcs), s, t
}

// Composite grafts onto base the two structures that give real web/social
// graphs their characteristic core-decomposition behaviour and that plain
// random models lack:
//
//   - a planted near-clique of `clique` vertices — a tight nucleus whose
//     h-indices stabilize within one sweep, so it becomes the k*-core and
//     lets PKMC's early stop fire after a handful of iterations
//     (and gives PKC its k* ≈ clique peel levels);
//   - `chains` pendant paths of `chainLen` fresh vertices each — sparse
//     filaments along which h-index convergence propagates one hop per
//     sweep, so full Local convergence costs ≈ chainLen iterations.
//
// The gap between those two numbers is precisely the Exp-2/Table-6
// structure the paper measures on KONECT/LAW graphs.
func Composite(base *graph.Undirected, clique, chains, chainLen int, seed int64) *graph.Undirected {
	withClique, _ := PlantClique(base, clique, seed)
	n := withClique.N()
	total := n + chains*chainLen
	edges := withClique.Edges()
	rng := rand.New(rand.NewSource(seed + 1))
	next := int32(n)
	for c := 0; c < chains; c++ {
		prev := int32(rng.Intn(n)) // anchor each chain at a random body vertex
		for i := 0; i < chainLen; i++ {
			edges = append(edges, graph.Edge{U: prev, V: next})
			prev = next
			next++
		}
	}
	return graph.NewUndirected(total, edges)
}

// CompositeDirected plants a complete S×T biclique of the given sizes into
// base, making [|T|, |S|] the dominant cn-pair when |S|·|T| exceeds the
// body's d_max — the directed analogue of Composite's nucleus. The planted
// block is what PWC's w*-induced subgraph isolates in one warm-start peel.
func CompositeDirected(base *graph.Directed, sizeS, sizeT int, seed int64) *graph.Directed {
	d, _, _ := PlantBiclique(base, sizeS, sizeT, seed)
	return d
}

// PowerLawExponent estimates the degree-distribution exponent β of a graph
// with the Hill maximum-likelihood estimator over degrees at or above
// dmin: β̂ = 1 + H / Σ ln(d_i / (dmin - 0.5)). It validates that the
// Chung–Lu / RMAT scale models actually carry the heavy tail the paper's
// datasets have; returns 0 when fewer than 10 vertices reach dmin.
func PowerLawExponent(g *graph.Undirected, dmin int32) float64 {
	var sum float64
	var h int
	for v := 0; v < g.N(); v++ {
		d := g.Degree(int32(v))
		if d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			h++
		}
	}
	if h < 10 || sum == 0 {
		return 0
	}
	return 1 + float64(h)/sum
}
