package lattice

import "math"

// OracleErrorRate returns the minimal phone error rate achievable by any
// path through the lattice against the reference string — the standard
// lattice-quality diagnostic (a rich lattice has a much lower oracle PER
// than its 1-best PER). The rate is edits/len(ref).
func (l *Lattice) OracleErrorRate(ref []int) float64 {
	if len(ref) == 0 {
		return 0
	}
	const inf = math.MaxInt32
	m := len(ref)
	// dist[n][i]: minimal edits for some path from start to node n
	// consuming ref[:i].
	dist := make([][]int32, l.NumNodes)
	for n := range dist {
		dist[n] = make([]int32, m+1)
		for i := range dist[n] {
			dist[n][i] = inf
		}
	}
	// At the start node, consuming ref[:i] costs i deletions.
	for i := 0; i <= m; i++ {
		dist[0][i] = int32(i)
	}
	for n := 0; n < l.NumNodes; n++ {
		// Within-node closure: consuming one more ref phone is a deletion.
		for i := 1; i <= m; i++ {
			if dist[n][i-1] < inf && dist[n][i-1]+1 < dist[n][i] {
				dist[n][i] = dist[n][i-1] + 1
			}
		}
		for _, ei := range l.out[n] {
			e := &l.Edges[ei]
			for i := 0; i <= m; i++ {
				if dist[n][i] == inf {
					continue
				}
				// Insertion: hypothesis phone with no ref consumption.
				if dist[n][i]+1 < dist[e.To][i] {
					dist[e.To][i] = dist[n][i] + 1
				}
				// Match or substitution.
				if i < m {
					cost := int32(1)
					if e.Phone == ref[i] {
						cost = 0
					}
					if dist[n][i]+cost < dist[e.To][i+1] {
						dist[e.To][i+1] = dist[n][i] + cost
					}
				}
			}
		}
	}
	end := l.NumNodes - 1
	bestEdits := dist[end][m]
	if bestEdits == inf {
		return 1
	}
	return float64(bestEdits) / float64(m)
}
