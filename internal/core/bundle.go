package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// A model bundle is the single on-disk artifact the commands exchange:
// the fitted pipeline and classifier plus the metadata needed to refuse
// serving against the wrong metric catalog — a format version, the
// fingerprint of the raw metric schema the model was trained on
// (frame.Schema.Hash: names, domains and the utilization/binary/time/log
// flags, the same function the dataset layer and the serving wire protocol
// use), and the training seed for provenance. cmd/train writes bundles;
// cmd/evaluate, cmd/autoscalesim and cmd/serve load them through the one
// loader below. This build reads the current format and its predecessor:
// version 3 requires a training-distribution fingerprint (per-column
// moments + quantile sketch, frame.Fingerprint) validated against the
// schema width — the drift-detection reference the lifecycle plane needs.
// Version 4 additionally carries the forest's compiled quantized predictor
// (per-feature bin edges + per-node uint8 code thresholds, forest.Compile)
// inside the forest gob, so a loaded model batch-predicts through the
// quantized path immediately; models without a compiled form
// (exact-splitter training, explicit DropQuant) are written as version 3.

// BundleVersion is the current bundle format version; minBundleVersion is
// the oldest this build still reads.
const (
	BundleVersion    = 4
	minBundleVersion = 3
)

// bundleMagic distinguishes bundles from other gob streams.
const bundleMagic = "monitorless-bundle"

// Bundle is a loaded model plus its provenance metadata.
type Bundle struct {
	// Version is the format version.
	Version int
	// SchemaHash fingerprints the raw metric schema: frame.Schema.Hash
	// over the model's RawSchema.
	SchemaHash string
	// TrainSeed is the seed the model was trained with (0 when unknown).
	TrainSeed int64
	// Model is the trained classifier.
	Model *Model
}

// bundleWire is the gob image of a bundle.
type bundleWire struct {
	Magic      string
	Version    int
	SchemaHash string
	TrainSeed  int64
	ModelBlob  []byte
}

// BundleVersionFor reports the format version SaveBundle will write for
// a model: 4 when the forest carries a compiled quantized predictor, 3
// otherwise — so the stored version always tells readers which
// capabilities the bundle carries.
func BundleVersionFor(m *Model) int {
	if m.Forest == nil || m.Forest.Quant() == nil {
		return 3
	}
	return BundleVersion
}

// SaveBundle writes the bundle at the version matching the model's
// capabilities (see BundleVersionFor). A model without a training
// fingerprint cannot be saved: every readable format requires one.
func SaveBundle(w io.Writer, m *Model, trainSeed int64) error {
	if m.Fingerprint == nil {
		return fmt.Errorf("core: save bundle: model carries no training fingerprint")
	}
	blob, err := m.SaveBytes()
	if err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	wire := bundleWire{
		Magic:      bundleMagic,
		Version:    BundleVersionFor(m),
		SchemaHash: m.RawSchema.Hash(),
		TrainSeed:  trainSeed,
		ModelBlob:  blob,
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	return nil
}

// LoadBundle reads a bundle written by SaveBundle. It verifies the stored
// schema hash against the decoded model and refuses every format version
// outside [minBundleVersion, BundleVersion]; a gob stream without the
// bundle header counts as version 0.
func LoadBundle(r io.Reader) (*Bundle, error) {
	var wire bundleWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		// Bare model gobs from before the bundle header share no field
		// with bundleWire and land here too.
		return nil, fmt.Errorf("core: load bundle: not a model bundle (a format version 0 bare-model file must be retrained with this build): %w", err)
	}
	if wire.Magic != bundleMagic {
		wire.Version = 0
	}
	if wire.Version > BundleVersion {
		return nil, fmt.Errorf("core: load bundle: format version %d not supported (this build reads %d–%d)", wire.Version, minBundleVersion, BundleVersion)
	}
	if wire.Version < minBundleVersion {
		return nil, fmt.Errorf("core: load bundle: format version %d: retrain with this build (it reads %d–%d)", wire.Version, minBundleVersion, BundleVersion)
	}
	m, err := LoadBytes(wire.ModelBlob)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	if got := m.RawSchema.Hash(); got != wire.SchemaHash {
		return nil, fmt.Errorf("core: load bundle: stored schema hash %.12s… does not match the embedded model's schema %.12s… (corrupt or tampered bundle)", wire.SchemaHash, got)
	}
	if m.Fingerprint == nil {
		return nil, fmt.Errorf("core: load bundle: version %d bundle carries no training fingerprint (corrupt bundle)", wire.Version)
	}
	if err := m.Fingerprint.Validate(len(m.RawSchema)); err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	if wire.Version >= 4 && (m.Forest == nil || m.Forest.Quant() == nil) {
		// The forest gob already verified the compiled thresholds against a
		// recompile; here only presence remains to check.
		return nil, fmt.Errorf("core: load bundle: version %d bundle carries no compiled quantized predictor (corrupt bundle)", wire.Version)
	}
	return &Bundle{Version: wire.Version, SchemaHash: wire.SchemaHash, TrainSeed: wire.TrainSeed, Model: m}, nil
}

// SaveBundleFile writes a bundle to path.
func SaveBundleFile(path string, m *Model, trainSeed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	if err := SaveBundle(f, m, trainSeed); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBundleFile is the shared loader every command uses.
func LoadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	defer f.Close()
	return LoadBundle(f)
}

// CheckSchema rejects a bundle whose raw metric schema does not match the
// runtime catalog, naming the first divergence so the error is actionable.
func (b *Bundle) CheckSchema(names []string) error {
	have := b.Model.RawNames()
	if len(have) != len(names) {
		return fmt.Errorf("core: bundle schema mismatch: model trained on %d raw metrics, runtime catalog has %d (retrain against this catalog)", len(have), len(names))
	}
	for i := range names {
		if have[i] != names[i] {
			return fmt.Errorf("core: bundle schema mismatch at metric %d: model expects %q, runtime catalog has %q (retrain against this catalog)", i, have[i], names[i])
		}
	}
	return nil
}
