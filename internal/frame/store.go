// The storage seam under Frame: a dense frame keeps today's single
// contiguous column-major slab (store == nil, zero new indirection on
// Col/At), while a chunk-backed frame delegates to a Store — fixed
// row-count chunks, column-major *within* each chunk so a per-chunk
// column is still one contiguous []float64. Two Store implementations
// exist: an in-memory chunked store (tests, pipeline intermediates in
// memory mode) and the file-backed spill store (one file per chunk,
// mmap where the platform supports it with a plain pread fallback, and
// an LRU-bounded resident set so the working set stays at a few chunks
// no matter how large the corpus is). Chunk files hold raw native-endian
// float64s; the manifest records the byte order and refuses to open a
// store written on a machine with the opposite order.
package frame

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"unsafe"
)

// DefaultChunkRows is the chunk height used when a writer or flag leaves
// it unset. At the catalog width (~290 columns) one chunk is ~9 MB —
// large enough that sequential sweeps are I/O-friendly, small enough
// that a handful of resident chunks stays far below any realistic
// memory budget.
const DefaultChunkRows = 4096

// defaultResidentChunks bounds the spill store's LRU-resident set.
const defaultResidentChunks = 8

// NoMmapEnv, when set to a non-empty value, forces the spill store onto
// the pread fallback even where mmap is available (the verify.sh
// fallback lane).
const NoMmapEnv = "MONITORLESS_NO_MMAP"

// Store is the chunked backing of an out-of-core frame. Chunks are
// column-major float64 slabs of ChunkLen(k) rows each; every chunk except
// possibly the last holds exactly ChunkRows() rows.
type Store interface {
	// Rows is the total row count across all chunks.
	Rows() int
	// Cols is the schema width every chunk shares.
	Cols() int
	// ChunkRows is the fixed chunk height (the last chunk may be shorter).
	ChunkRows() int
	// NumChunks is the chunk count.
	NumChunks() int
	// ChunkLen returns the row count of chunk k.
	ChunkLen(k int) int
	// ChunkData returns chunk k's column-major slab (len = ChunkLen(k)·Cols,
	// column stride = ChunkLen(k)). The slab is read-only and remains valid
	// until Close.
	ChunkData(k int) ([]float64, error)
	// Close releases resources (mappings, caches). The store must not be
	// used afterwards.
	Close() error
}

// chunkLenAt is the shared chunk-height arithmetic.
func chunkLenAt(rows, chunkRows, k int) int {
	n := rows - k*chunkRows
	if n > chunkRows {
		n = chunkRows
	}
	return n
}

func numChunksFor(rows, chunkRows int) int {
	if rows == 0 {
		return 0
	}
	return (rows + chunkRows - 1) / chunkRows
}

// memStore is the in-memory chunked store: same chunk geometry as the
// spill store, no I/O. It is what ChunkedWriter produces when no spill
// directory is given — used by tests and by chunked pipeline
// intermediates that fit in memory.
type memStore struct {
	rows, cols, chunkRows int
	chunks                [][]float64
}

func (s *memStore) Rows() int          { return s.rows }
func (s *memStore) Cols() int          { return s.cols }
func (s *memStore) ChunkRows() int     { return s.chunkRows }
func (s *memStore) NumChunks() int     { return len(s.chunks) }
func (s *memStore) ChunkLen(k int) int { return chunkLenAt(s.rows, s.chunkRows, k) }
func (s *memStore) ChunkData(k int) ([]float64, error) {
	return s.chunks[k], nil
}
func (s *memStore) Close() error { s.chunks = nil; return nil }

// spillManifest is the JSON descriptor written next to the chunk files.
type spillManifest struct {
	Version   int    `json:"version"`
	Rows      int    `json:"rows"`
	ChunkRows int    `json:"chunkRows"`
	ByteOrder string `json:"byteOrder"`
	Labeled   bool   `json:"labeled"`
	Schema    Schema `json:"schema"`
	Spans     []Span `json:"spans"`
	// FingerprintStreamed is informational provenance: datagen sets it when
	// the corpus summary fingerprint was computed with the streaming
	// (sketch-based) path rather than the exact in-memory one.
	FingerprintStreamed bool `json:"fingerprintStreamed,omitempty"`
}

const (
	spillManifestVersion = 1
	manifestName         = "manifest.json"
	labelsName           = "labels.bin"
)

func chunkFileName(k int) string { return fmt.Sprintf("chunk-%06d.f64", k) }

// nativeByteOrder reports the byte order float64 slabs are written in.
func nativeByteOrder() string {
	x := uint16(1)
	if *(*byte)(unsafe.Pointer(&x)) == 1 {
		return "LE"
	}
	return "BE"
}

// floatsAsBytes reinterprets a float64 slice as its native-endian byte
// image. The slab must not be resized while the byte view is live.
func floatsAsBytes(fs []float64) []byte {
	if len(fs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(fs))), len(fs)*8)
}

// bytesAsFloats reinterprets a byte slice (8-byte aligned, e.g. an mmap
// region) as native-endian float64s.
func bytesAsFloats(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// spillChunk is one resident chunk of a spill store.
type spillChunk struct {
	data    []float64
	mapped  []byte // non-nil when the chunk is an mmap region
	lastUse int64
}

// spillStore is the file-backed Store. In mmap mode every touched chunk
// keeps its mapping until Close (so slabs handed out stay valid), but
// chunks evicted from the LRU-resident set are madvise(DONTNEED)'d —
// their pages leave RSS and are transparently refaulted from the file on
// the next touch. In pread mode evicted chunks simply drop out of the
// cache map; slabs already handed to callers stay alive through the
// garbage collector.
type spillStore struct {
	dir       string
	rows      int
	cols      int
	chunkRows int
	budget    int
	useMmap   bool

	mu       sync.Mutex
	clock    int64
	resident map[int]*spillChunk
	mappings map[int]*spillChunk // mmap mode: every mapping ever created
}

func (s *spillStore) Rows() int          { return s.rows }
func (s *spillStore) Cols() int          { return s.cols }
func (s *spillStore) ChunkRows() int     { return s.chunkRows }
func (s *spillStore) NumChunks() int     { return numChunksFor(s.rows, s.chunkRows) }
func (s *spillStore) ChunkLen(k int) int { return chunkLenAt(s.rows, s.chunkRows, k) }

func (s *spillStore) chunkPath(k int) string { return filepath.Join(s.dir, chunkFileName(k)) }

func (s *spillStore) ChunkData(k int) ([]float64, error) {
	if k < 0 || k >= s.NumChunks() {
		return nil, fmt.Errorf("frame: spill chunk %d out of range (%d chunks)", k, s.NumChunks())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clock++
	if c, ok := s.resident[k]; ok {
		c.lastUse = s.clock
		return c.data, nil
	}
	want := s.ChunkLen(k) * s.cols * 8
	var c *spillChunk
	if m, ok := s.mappings[k]; ok {
		// A previously evicted mmap chunk: the mapping is still valid,
		// touching it refaults the pages from the file.
		c = m
	} else {
		loaded, err := s.loadChunk(k, want)
		if err != nil {
			return nil, err
		}
		c = loaded
		if c.mapped != nil {
			s.mappings[k] = c
		}
	}
	c.lastUse = s.clock
	s.resident[k] = c
	s.evictOver()
	return c.data, nil
}

// loadChunk reads or maps chunk k from disk. Caller holds s.mu.
func (s *spillStore) loadChunk(k, want int) (*spillChunk, error) {
	f, err := os.Open(s.chunkPath(k))
	if err != nil {
		return nil, fmt.Errorf("frame: spill chunk %d: %w", k, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("frame: spill chunk %d: %w", k, err)
	}
	if st.Size() != int64(want) {
		return nil, fmt.Errorf("frame: spill chunk %d: file is %d bytes, manifest implies %d", k, st.Size(), want)
	}
	if s.useMmap {
		b, err := mmapFile(f, want)
		if err == nil {
			return &spillChunk{data: bytesAsFloats(b), mapped: b}, nil
		}
		// Fall through to pread on mapping failure.
	}
	data := make([]float64, want/8)
	if _, err := f.ReadAt(floatsAsBytes(data), 0); err != nil {
		return nil, fmt.Errorf("frame: spill chunk %d: %w", k, err)
	}
	return &spillChunk{data: data}, nil
}

// evictOver shrinks the resident set back to the budget. Caller holds s.mu.
func (s *spillStore) evictOver() {
	for len(s.resident) > s.budget {
		victim, oldest := -1, int64(1<<62)
		for k, c := range s.resident {
			if c.lastUse < oldest {
				victim, oldest = k, c.lastUse
			}
		}
		c := s.resident[victim]
		delete(s.resident, victim)
		if c.mapped != nil {
			// Mapping stays valid (slabs handed out keep working); only
			// the pages are returned to the kernel.
			madviseDontneed(c.mapped)
		}
	}
}

func (s *spillStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for k, c := range s.mappings {
		if err := munmapBytes(c.mapped); err != nil && first == nil {
			first = err
		}
		delete(s.mappings, k)
	}
	s.resident = map[int]*spillChunk{}
	return first
}

// openSpillDir opens an existing spill directory and returns the store
// plus the manifest (schema, spans, labels sidecar decoded by caller).
func openSpillDir(dir string) (*spillStore, *spillManifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, fmt.Errorf("frame: open spill store: %w", err)
	}
	var man spillManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return nil, nil, fmt.Errorf("frame: open spill store: bad manifest: %w", err)
	}
	if man.Version != spillManifestVersion {
		return nil, nil, fmt.Errorf("frame: open spill store: manifest version %d not supported (this build reads %d)", man.Version, spillManifestVersion)
	}
	if man.ByteOrder != nativeByteOrder() {
		return nil, nil, fmt.Errorf("frame: open spill store: chunk files are %s, this machine is %s", man.ByteOrder, nativeByteOrder())
	}
	if man.Rows < 0 || man.ChunkRows <= 0 || len(man.Schema) == 0 {
		return nil, nil, fmt.Errorf("frame: open spill store: manifest rows=%d chunkRows=%d cols=%d", man.Rows, man.ChunkRows, len(man.Schema))
	}
	st := &spillStore{
		dir:       dir,
		rows:      man.Rows,
		cols:      len(man.Schema),
		chunkRows: man.ChunkRows,
		budget:    defaultResidentChunks,
		useMmap:   mmapSupported && os.Getenv(NoMmapEnv) == "",
		resident:  map[int]*spillChunk{},
		mappings:  map[int]*spillChunk{},
	}
	return st, &man, nil
}

// readLabelsFile decodes the labels sidecar (int32 little-endian per row).
func readLabelsFile(path string, rows int) ([]int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) != rows*4 {
		return nil, fmt.Errorf("frame: labels sidecar is %d bytes for %d rows", len(raw), rows)
	}
	out := make([]int, rows)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(raw[i*4:])))
	}
	return out, nil
}

func writeLabelsFile(path string, labels []int) error {
	buf := make([]byte, len(labels)*4)
	for i, v := range labels {
		binary.LittleEndian.PutUint32(buf[i*4:], uint32(int32(v)))
	}
	return os.WriteFile(path, buf, 0o644)
}

// OpenSpill opens a chunk-backed frame from a spill directory written by
// ChunkedWriter (datagen -spill-dir). The returned frame is read-only;
// call Close (or Discard, to also delete the files) when done.
func OpenSpill(dir string) (*Frame, error) {
	st, man, err := openSpillDir(dir)
	if err != nil {
		return nil, err
	}
	var labels []int
	if man.Labeled {
		labels, err = readLabelsFile(filepath.Join(dir, labelsName), man.Rows)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("frame: open spill store: %w", err)
		}
	}
	fr := &Frame{
		schema: man.Schema,
		store:  st,
		rows:   man.Rows,
		spans:  man.Spans,
		labels: labels,
	}
	if err := fr.Validate(); err != nil {
		st.Close()
		return nil, fmt.Errorf("frame: open spill store: %w", err)
	}
	return fr, nil
}

// ChunkedWriter assembles a chunk-backed frame row by row (or frame by
// frame), sealing each full chunk as it completes — to disk when a spill
// directory is set, so writer memory stays at one open chunk regardless
// of total rows. Rows must arrive in final frame order; span bookkeeping
// mirrors Frame.AppendLabeled (a row extends the trailing span when its
// run ID matches, else opens a new span).
type ChunkedWriter struct {
	schema    Schema
	dir       string
	chunkRows int
	cols      int
	buf       []float64 // open chunk, column-major, stride = chunkRows; nil until a row needs it
	fill      int
	sealed    int
	memChunks [][]float64
	spans     []Span
	labels    []int
	labeled   int // -1 undecided, 0 unlabeled, 1 labeled
	rows      int
	created   []string
	madeDir   bool
	done      bool
}

// NewChunkedWriter starts a writer. dir == "" keeps chunks in memory;
// otherwise dir is created if needed and chunk files are written into it.
// chunkRows <= 0 selects DefaultChunkRows.
func NewChunkedWriter(schema Schema, chunkRows int, dir string) (*ChunkedWriter, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("frame: chunked writer needs a non-empty schema")
	}
	if chunkRows <= 0 {
		chunkRows = DefaultChunkRows
	}
	w := &ChunkedWriter{
		schema:    schema,
		dir:       dir,
		chunkRows: chunkRows,
		cols:      len(schema),
		labeled:   -1,
	}
	if dir != "" {
		if _, err := os.Stat(dir); os.IsNotExist(err) {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, fmt.Errorf("frame: chunked writer: %w", err)
			}
			w.madeDir = true
		}
	}
	return w, nil
}

// Dir returns the spill directory ("" for the in-memory mode).
func (w *ChunkedWriter) Dir() string { return w.dir }

// Rows returns the number of rows appended so far.
func (w *ChunkedWriter) Rows() int { return w.rows }

// open returns the open chunk's buffer, allocating it on first use: seal
// hands a full in-memory buffer to the chunk list rather than copying it.
func (w *ChunkedWriter) open() []float64 {
	if w.buf == nil {
		w.buf = make([]float64, w.chunkRows*w.cols)
	}
	return w.buf
}

// addSpan records rows [start, end) as run runID, extending the trailing
// span when it is the same run and ends where these rows begin.
func (w *ChunkedWriter) addSpan(runID, start, end int) {
	if start == end {
		return
	}
	if k := len(w.spans); k > 0 && w.spans[k-1].ID == runID && w.spans[k-1].End == start {
		w.spans[k-1].End = end
	} else {
		w.spans = append(w.spans, Span{ID: runID, Start: start, End: end})
	}
}

func (w *ChunkedWriter) appendRow(runID int, vals []float64) error {
	if w.done {
		return fmt.Errorf("frame: append on a finished chunked writer")
	}
	if len(vals) != w.cols {
		return fmt.Errorf("frame: append row has %d values, schema has %d", len(vals), w.cols)
	}
	buf := w.open()
	for j, v := range vals {
		buf[j*w.chunkRows+w.fill] = v
	}
	w.addSpan(runID, w.rows, w.rows+1)
	w.fill++
	w.rows++
	if w.fill == w.chunkRows {
		return w.seal()
	}
	return nil
}

// AppendLabeledRow adds a labeled row to run runID. Labels are kept in
// memory (8 bytes per row — negligible next to the 8·cols-byte row
// itself) and persisted as a sidecar at Finish.
func (w *ChunkedWriter) AppendLabeledRow(runID int, vals []float64, label int) error {
	if w.labeled == 0 {
		return fmt.Errorf("frame: labeled append on an unlabeled chunked writer")
	}
	w.labeled = 1
	if err := w.appendRow(runID, vals); err != nil {
		return err
	}
	w.labels = append(w.labels, label)
	return nil
}

// AppendFrame appends every row of fr (dense, chunk-backed or a view),
// carrying its run spans and labels. Frames without spans are appended as
// a single run 0. Everything that can be refused is refused before the
// first row is written; the data then moves one column segment per
// (source chunk, destination chunk) pair.
func (w *ChunkedWriter) AppendFrame(fr *Frame) error {
	if w.done {
		return fmt.Errorf("frame: append on a finished chunked writer")
	}
	if fr.NumCols() != w.cols {
		return fmt.Errorf("frame: append frame has %d columns, schema has %d", fr.NumCols(), w.cols)
	}
	n := fr.Rows()
	if n == 0 {
		return nil
	}
	labels := fr.Labels()
	if labels != nil && w.labeled == 0 {
		return fmt.Errorf("frame: labeled append on an unlabeled chunked writer")
	}
	if labels == nil && w.labeled == 1 {
		return fmt.Errorf("frame: unlabeled append on a labeled chunked writer")
	}
	w.labeled = 0
	if labels != nil {
		w.labeled = 1
		w.labels = append(w.labels, labels...)
	}
	if len(fr.Spans()) == 0 {
		w.addSpan(0, w.rows, w.rows+n)
	}
	for _, s := range fr.Spans() {
		w.addSpan(s.ID, w.rows+s.Start, w.rows+s.End)
	}
	w.rows += n
	return fr.ForEachChunk(func(_ int, ch *Frame) error {
		for off := 0; off < ch.rows; {
			buf := w.open()
			m := min(w.chunkRows-w.fill, ch.rows-off)
			for j := 0; j < w.cols; j++ {
				copy(buf[j*w.chunkRows+w.fill:], ch.Col(j)[off:off+m])
			}
			off += m
			w.fill += m
			if w.fill == w.chunkRows {
				if err := w.seal(); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// seal flushes the open chunk: a full in-memory buffer becomes the chunk
// itself and the next row opens a fresh one; the partial final chunk is
// compacted to stride = fill.
func (w *ChunkedWriter) seal() error {
	if w.fill == 0 {
		return nil
	}
	slab := w.buf
	if w.fill < w.chunkRows {
		slab = make([]float64, w.fill*w.cols)
		for j := 0; j < w.cols; j++ {
			copy(slab[j*w.fill:(j+1)*w.fill], w.buf[j*w.chunkRows:j*w.chunkRows+w.fill])
		}
	}
	if w.dir == "" {
		w.memChunks = append(w.memChunks, slab)
		w.buf = nil
	} else {
		path := filepath.Join(w.dir, chunkFileName(w.sealed))
		w.created = append(w.created, path)
		if err := os.WriteFile(path, floatsAsBytes(slab), 0o644); err != nil {
			return fmt.Errorf("frame: chunked writer: %w", err)
		}
	}
	w.sealed++
	w.fill = 0
	return nil
}

// Finish seals the trailing partial chunk, persists the manifest and
// label sidecar (spill mode), and returns the chunk-backed frame. The
// writer must not be used afterwards.
func (w *ChunkedWriter) Finish() (*Frame, error) {
	if w.done {
		return nil, fmt.Errorf("frame: finish on a finished chunked writer")
	}
	if err := w.seal(); err != nil {
		return nil, err
	}
	w.done = true
	if w.dir == "" {
		st := &memStore{rows: w.rows, cols: w.cols, chunkRows: w.chunkRows, chunks: w.memChunks}
		return &Frame{schema: w.schema, store: st, rows: w.rows, spans: w.spans, labels: w.labels}, nil
	}
	if w.labeled == 1 {
		path := filepath.Join(w.dir, labelsName)
		w.created = append(w.created, path)
		if err := writeLabelsFile(path, w.labels); err != nil {
			return nil, fmt.Errorf("frame: chunked writer: %w", err)
		}
	}
	man := spillManifest{
		Version:   spillManifestVersion,
		Rows:      w.rows,
		ChunkRows: w.chunkRows,
		ByteOrder: nativeByteOrder(),
		Labeled:   w.labeled == 1,
		Schema:    w.schema,
		Spans:     w.spans,
	}
	raw, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("frame: chunked writer: %w", err)
	}
	manPath := filepath.Join(w.dir, manifestName)
	w.created = append(w.created, manPath)
	if err := os.WriteFile(manPath, raw, 0o644); err != nil {
		return nil, fmt.Errorf("frame: chunked writer: %w", err)
	}
	return OpenSpill(w.dir)
}

// Abort deletes every file this writer created (and the spill directory
// itself if the writer created it), so a failed streaming generation
// leaves no orphaned chunks behind. Safe to call after a failed Finish;
// a no-op for the in-memory mode.
func (w *ChunkedWriter) Abort() {
	w.done = true
	for _, p := range w.created {
		os.Remove(p)
	}
	w.created = nil
	if w.madeDir {
		// Removes the directory only if nothing else was placed in it.
		os.Remove(w.dir)
	}
}

// Rechunk copies fr (dense or chunked) into a chunk-backed frame with
// the given geometry — the test and CLI bridge between the two storage
// layouts. dir == "" produces an in-memory chunked frame.
func Rechunk(fr *Frame, chunkRows int, dir string) (*Frame, error) {
	w, err := NewChunkedWriter(fr.Schema(), chunkRows, dir)
	if err != nil {
		return nil, err
	}
	if err := w.AppendFrame(fr); err != nil {
		w.Abort()
		return nil, err
	}
	out, err := w.Finish()
	if err != nil {
		w.Abort()
		return nil, err
	}
	return out, nil
}
