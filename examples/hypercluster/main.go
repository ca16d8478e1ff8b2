// Hypercluster: the paper's Section III-E. With batch size > 1, operations
// from several inference samples are interleaved into each cluster so a
// lane blocked on a remote tensor of one sample computes another sample
// instead; switched hyperclustering additionally rotates cluster
// assignments per sample to balance lane loads (Figs. 8, 9, 13, 14).
package main

import (
	"context"
	"fmt"
	"log"

	ramiel "repro"
	"repro/internal/exec"
)

func main() {
	g, err := ramiel.BuildModel("squeezenet", ramiel.ModelConfig{ImageSize: 64})
	if err != nil {
		log.Fatal(err)
	}
	prog, err := ramiel.Compile(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("squeezenet: %d clusters at batch 1\n\n", prog.NumClusters())
	fmt.Printf("%6s | %10s %10s %10s\n", "batch", "plain", "switched", "uplift")

	for _, batch := range []int{2, 4, 8} {
		var sp [2]float64
		for i, switched := range []bool{false, true} {
			hp, err := prog.Hypercluster(batch, switched)
			if err != nil {
				log.Fatal(err)
			}
			feeds := ramiel.RandomInputs(hp.Graph, 1)
			mm, err := exec.MeasureCosts(hp.Graph, feeds, 1, 0)
			if err != nil {
				log.Fatal(err)
			}
			mm.PaperEquivalentQueues()
			res, err := exec.Simulate(hp.Plan, mm)
			if err != nil {
				log.Fatal(err)
			}
			sp[i] = res.Speedup()

			// Verify real parallel execution for the smallest batch.
			if batch == 2 {
				want, err := hp.RunSequential(feeds)
				if err != nil {
					log.Fatal(err)
				}
				got, err := hp.NewSession().Run(context.Background(), feeds)
				if err != nil {
					log.Fatal(err)
				}
				for name, w := range want {
					if !got[name].AllClose(w, 1e-4, 1e-5) {
						log.Fatalf("batch %d switched=%v: output %q differs", batch, switched, name)
					}
				}
			}
		}
		fmt.Printf("%6d | %9.2fx %9.2fx %+8.1f%%\n", batch, sp[0], sp[1], (sp[1]/sp[0]-1)*100)
	}
	fmt.Println("\n(batch-2 runs verified against the sequential batched execution)")
	fmt.Println("paper: hypercluster speedup rises with batch size; switching adds up to ~30%")
}
