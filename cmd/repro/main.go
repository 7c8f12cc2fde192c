// Command repro regenerates the paper's evaluation artifacts (Fig. 1,
// Fig. 6, Table 1, Fig. 7, Fig. 10, Fig. 11) as plain-text reports.
//
// Usage:
//
//	repro -exp fig1            # one artifact
//	repro -exp all             # everything (paper-scale; takes minutes)
//	repro -exp fig10 -scale small -seed 7
//	repro -exp ablation        # the DESIGN.md §5 design-choice studies
//	repro -exp engine          # multi-stream engine scale-out demo
//	repro -exp pairwise        # tiled + sharded pairwise-EMD demo
//	repro -exp solverscale     # EMD solver cost-amortization study
//	repro -exp distprofile     # offline distance-profile segmentation demo
//
// The pairwise experiment also exposes the multi-process sharding flow:
// each shard process computes its tile subset of the corpus matrix and
// emits a mergeable partial as JSON, and a collector merges them —
//
//	repro -exp pairwise -shard 0/2 > p0.json
//	repro -exp pairwise -shard 1/2 > p1.json
//	repro -exp pairwise -merge p0.json,p1.json
//
// The merged matrix is verified bit-identical to a single-process run.
//
// The -scale small option shrinks the workloads (fewer nodes, records and
// bootstrap replicates) so every figure regenerates in seconds; the shape
// claims still hold at that scale. EXPERIMENTS.md records a full-scale
// run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/bipartite"
	"repro/internal/enron"
	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig1|fig6|table1|fig7|fig10|fig11|ablation|engine|pairwise|solverscale|distprofile|all")
	seed := flag.Int64("seed", 1, "master RNG seed")
	scale := flag.String("scale", "full", "workload scale: full|small")
	shard := flag.String("shard", "", "with -exp pairwise: compute shard i/k of the corpus matrix and emit the partial as JSON")
	merge := flag.String("merge", "", "with -exp pairwise: comma-separated partial JSON files to merge and verify")
	flag.Parse()

	small := *scale == "small"
	if *scale != "full" && *scale != "small" {
		fmt.Fprintf(os.Stderr, "repro: unknown scale %q (want full or small)\n", *scale)
		os.Exit(2)
	}
	if *shard != "" || *merge != "" {
		if *exp != "pairwise" {
			fmt.Fprintln(os.Stderr, "repro: -shard and -merge require -exp pairwise")
			os.Exit(2)
		}
		if *shard != "" && *merge != "" {
			fmt.Fprintln(os.Stderr, "repro: -shard and -merge are mutually exclusive")
			os.Exit(2)
		}
		if err := runPairwiseShardFlow(*seed, pairwiseOptions(small), *shard, *merge, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "repro: pairwise failed: %v\n", err)
			os.Exit(1)
		}
		return
	}

	runners := map[string]func() (string, error){
		"fig1": func() (string, error) {
			r, err := experiments.Fig1(*seed)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"fig6": func() (string, error) {
			r, err := experiments.Fig6(*seed)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"table1": func() (string, error) {
			return experiments.Table1Report(), nil
		},
		"fig7": func() (string, error) {
			opts := experiments.Fig7Options{}
			if small {
				opts = experiments.Fig7Options{
					Subjects:            3,
					Replicates:          200,
					MeanRecordsPerBag:   150,
					MeanBagsPerActivity: 10,
				}
			}
			r, err := experiments.Fig7(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"fig10": func() (string, error) {
			opts := experiments.Fig10Options{}
			if small {
				opts = experiments.Fig10Options{
					Graph:      bipartite.Section53Options{NodeLambda: 40, Steps: 200, TotalWeight: 10000},
					Replicates: 200,
				}
			}
			r, err := experiments.Fig10(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"fig11": func() (string, error) {
			opts := experiments.Fig11Options{}
			if small {
				opts = experiments.Fig11Options{
					Corpus:     enron.Config{Employees: 60},
					Replicates: 200,
				}
			}
			r, err := experiments.Fig11(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"ablation": func() (string, error) {
			r, err := experiments.Ablation(*seed)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"engine": func() (string, error) {
			opts := experiments.EngineScaleOptions{}
			if small {
				opts = experiments.EngineScaleOptions{Streams: 16, Steps: 24, Replicates: 100}
			}
			r, err := experiments.EngineScale(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"pairwise": func() (string, error) {
			r, err := experiments.PairwiseScale(*seed, pairwiseOptions(small))
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"solverscale": func() (string, error) {
			opts := experiments.SolverScaleOptions{}
			if small {
				opts = experiments.SolverScaleOptions{Ks: []int{16, 32, 64}, Pairs: 2}
			}
			r, err := experiments.SolverScale(*seed, opts)
			if err != nil {
				return "", err
			}
			return r.Report, nil
		},
		"distprofile": func() (string, error) {
			opts := experiments.DistProfileOptions{}
			if small {
				opts = experiments.DistProfileOptions{N: 80, PointsPerBag: 60, Replicates: 99}
			}
			r, err := experiments.DistProfileExperiment(*seed, opts)
			if err != nil {
				if r != nil {
					fmt.Print(r.Report)
				}
				return "", err
			}
			return r.Report, nil
		},
	}

	order := []string{"fig1", "fig6", "table1", "fig7", "fig10", "fig11", "ablation", "engine", "pairwise", "solverscale", "distprofile"}
	var selected []string
	if *exp == "all" {
		selected = order
	} else if _, ok := runners[*exp]; ok {
		selected = []string{*exp}
	} else {
		fmt.Fprintf(os.Stderr, "repro: unknown experiment %q (want one of %v or all)\n", *exp, order)
		os.Exit(2)
	}

	for _, name := range selected {
		start := time.Now()
		report, err := runners[name]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro: %s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Print(report)
		fmt.Printf("\n[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// pairwiseOptions sizes the pairwise demo corpus. Shard processes and
// the merge collector must agree on these (they are derived from -scale
// only), or the partials would describe different matrices.
func pairwiseOptions(small bool) experiments.PairwiseScaleOptions {
	if small {
		// Tile 12 gives a 4×4 tile grid (10 upper-triangle tiles), so even
		// the small demo genuinely distributes tiles across shards.
		return experiments.PairwiseScaleOptions{N: 48, PointsPerBag: 25, TileSize: 12}
	}
	return experiments.PairwiseScaleOptions{}
}

// runPairwiseShardFlow handles the multi-process halves of the pairwise
// experiment: -shard i/k computes one shard's partial and writes it as
// JSON to stdout; -merge f1,f2,... reads partials back, merges them, and
// prints the verification report.
func runPairwiseShardFlow(seed int64, opts experiments.PairwiseScaleOptions, shard, merge string, out io.Writer) error {
	if shard != "" {
		var idx, cnt int
		if n, err := fmt.Sscanf(shard, "%d/%d", &idx, &cnt); n != 2 || err != nil {
			return fmt.Errorf("bad -shard %q (want i/k, e.g. 0/2)", shard)
		}
		p, err := experiments.PairwiseShardPartial(seed, opts, idx, cnt)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(out)
		return enc.Encode(p)
	}
	var parts []*repro.PartialMatrix
	for _, path := range strings.Split(merge, ",") {
		blob, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		var p repro.PartialMatrix
		if err := json.Unmarshal(blob, &p); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		parts = append(parts, &p)
	}
	report, err := experiments.PairwiseMergeReport(seed, opts, parts)
	if report != "" {
		fmt.Fprint(out, report)
	}
	return err
}
