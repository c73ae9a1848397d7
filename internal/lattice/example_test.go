package lattice_test

import (
	"fmt"

	"repro/internal/lattice"
)

// ExampleFromSausage builds a two-slot confusion network and reads its
// edge posteriors and expected bigram counts — the quantities the paper's
// Eq. 2 supervectors are made of.
func ExampleFromSausage() {
	l := lattice.FromSausage([]lattice.SausageSlot{
		{{Phone: 1, Prob: 0.7}, {Phone: 2, Prob: 0.3}},
		{{Phone: 3, Prob: 1.0}},
	})
	post := l.EdgePosteriors()
	fmt.Printf("P(edge 1)=%.2f P(edge 2)=%.2f\n", post[0], post[1])
	l.ExpectedNgramCounts(2, func(gram []int, w float64) {
		fmt.Printf("c(%d,%d)=%.2f\n", gram[0], gram[1], w)
	})
	// Output:
	// P(edge 1)=0.70 P(edge 2)=0.30
	// c(1,3)=0.70
	// c(2,3)=0.30
}
