// Command ooc_bench is the out-of-core data plane lane: it caps the Go
// heap with debug.SetMemoryLimit, streams a Table 1 corpus several times
// larger than that cap to disk chunks (datagen's -spill-dir path), trains
// the histogram-forest model directly on the spilled corpus, and prints
// the process's peak RSS. The lane fails if the corpus missed its target
// size or if peak RSS climbed past half the corpus — the signal that some
// stage materialized the data it was supposed to stream.
//
// Usage:
//
//	go run ./scripts/ooc_bench                      # 10x corpus
//	go run ./scripts/ooc_bench -ratio 4 -memlimit-mb 48
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"monitorless/internal/core"
	"monitorless/internal/dataset"
	"monitorless/internal/features"
	"monitorless/internal/ml/forest"
	"monitorless/internal/ml/tree"
	"monitorless/internal/pcp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ooc_bench: ")

	var (
		memlimitMB = flag.Int("memlimit-mb", 48, "GOMEMLIMIT cap in MiB")
		ratio      = flag.Float64("ratio", 10, "target corpus size as a multiple of the memory limit")
		chunkRows  = flag.Int("chunk-rows", 1024, "rows per spilled chunk")
		dir        = flag.String("dir", "", "spill directory (default: a fresh temp dir, removed afterwards)")
	)
	flag.Parse()
	if err := run(*memlimitMB, *ratio, *chunkRows, *dir); err != nil {
		log.Fatal(err)
	}
}

func run(memlimitMB int, ratio float64, chunkRows int, dir string) error {
	if memlimitMB < 16 || ratio < 1 || chunkRows < 1 {
		return fmt.Errorf("memlimit-mb must be >= 16, ratio >= 1, chunk-rows >= 1")
	}
	limit := int64(memlimitMB) << 20
	debug.SetMemoryLimit(limit)

	if dir == "" {
		d, err := os.MkdirTemp("", "monitorless-ooc-")
		if err != nil {
			return err
		}
		dir = d
		defer os.RemoveAll(d)
	}

	// Size the corpus from the target ratio: Table 1's 25 runs sampled at
	// 1 Hz yield duration-5 rows each over the default 267-column catalog.
	cfgs := dataset.Table1()
	cols := len(pcp.DefaultCatalog().CombinedDefs())
	wantRows := int(ratio*float64(limit))/(cols*8) + 1
	duration := wantRows/len(cfgs) + 6

	fmt.Printf("memlimit %d MiB, target %.0fx -> %d rows x %d cols (%d s per run), chunks of %d rows\n",
		memlimitMB, ratio, wantRows, cols, duration, chunkRows)

	genStart := time.Now()
	fr, _, err := dataset.GenerateFrame(cfgs, dataset.GenOptions{
		Duration:    duration,
		RampSeconds: 250,
		Seed:        42,
		SpillDir:    dir,
		ChunkRows:   chunkRows,
	})
	if err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	defer fr.Close()
	genSecs := time.Since(genStart).Seconds()
	genPeak := peakRSS()
	corpusBytes := int64(fr.Rows()) * int64(fr.NumCols()) * 8
	fmt.Printf("generated %d rows (%.1f MiB, %d chunks) in %.1fs, peak RSS %.1f MiB\n",
		fr.Rows(), float64(corpusBytes)/(1<<20), fr.NumChunks(), genSecs, mib(genPeak))

	// Lean out-of-core layout: normalize + one importance filter, then the
	// histogram forest — every stage that can stream, streaming. Time
	// features and products are orthogonal to the storage seam and would
	// only slow the lane down.
	cfg := core.TrainConfig{
		Pipeline: features.Config{
			Normalize:   true,
			Reduce1:     features.ReduceFilter,
			FilterTopK:  30,
			FilterTrees: 10,
			Seed:        42,
		},
		Forest: forest.Config{
			NumTrees:       40,
			MinSamplesLeaf: 20,
			Criterion:      tree.Entropy,
			Splitter:       tree.Hist,
			Seed:           42,
		},
		Threshold: 0.4,
	}
	trainStart := time.Now()
	m, err := core.TrainFrame(fr, cfg)
	if err != nil {
		return fmt.Errorf("train: %w", err)
	}
	trainSecs := time.Since(trainStart).Seconds()
	peak := peakRSS()
	fmt.Printf("trained %d hist trees on %d samples in %.1fs, peak RSS %.1f MiB\n",
		cfg.Forest.NumTrees, m.TrainSamples, trainSecs, mib(peak))

	corpusOverLimit := float64(corpusBytes) / float64(limit)
	fmt.Printf("%d engineered columns; corpus %.1fx the memory limit, peak RSS %.2fx the limit and %.2fx the corpus\n",
		m.Pipeline.NumOutputs(), corpusOverLimit, float64(peak)/float64(limit), float64(peak)/float64(corpusBytes))

	if corpusOverLimit < ratio {
		return fmt.Errorf("corpus only %.1fx the memory limit, want >= %.0fx", corpusOverLimit, ratio)
	}
	// Flatness gate: the whole point of the chunked plane is that neither
	// generation nor training ever holds the corpus. Peak RSS past half
	// the corpus means some stage densified it.
	if peak > 0 && peak > corpusBytes/2 {
		return fmt.Errorf("peak RSS %.1f MiB exceeds half the %.1f MiB corpus — a stage materialized the data",
			mib(peak), float64(corpusBytes)/(1<<20))
	}
	if peak == 0 {
		fmt.Println("note: /proc/self/status unavailable; RSS flatness not asserted")
	}
	return nil
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }

// peakRSS reads the process high-water RSS (VmHWM) from /proc/self/status,
// 0 where /proc does not exist.
func peakRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
