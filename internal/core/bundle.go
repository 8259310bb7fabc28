package core

import (
	"crypto/sha256"
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
// cmd/experiments -model and cmd/serve load them through the one loader
// below. Every readable version requires a training-distribution
// fingerprint (per-column moments + quantile sketch, frame.Fingerprint)
// validated against the schema width — the drift-detection reference the
// lifecycle plane needs. SaveBundle writes version 5, whose header adds
// the sha256 of the model blob; the loader checks it before it decodes
// the blob. Versions 3 and 4 carry no checksum and still load. The
// compiled forest form a version 4 file also stores is ignored: the
// forest decoder compiles every forest from its trees.

// BundleVersion is the bundle format version SaveBundle writes;
// minBundleVersion is the oldest this build still reads.
const (
	BundleVersion    = 5
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

// bundleWire is the gob image of a bundle. ModelSHA256 is the sha256 of
// ModelBlob (version 5; zero in older files).
type bundleWire struct {
	Magic       string
	Version     int
	SchemaHash  string
	TrainSeed   int64
	ModelBlob   []byte
	ModelSHA256 [sha256.Size]byte
}

// SaveBundle writes the bundle at BundleVersion. A model without a
// training fingerprint cannot be saved: every readable format requires
// one.
func SaveBundle(w io.Writer, m *Model, trainSeed int64) error {
	if m.Fingerprint == nil {
		return fmt.Errorf("core: save bundle: model carries no training fingerprint")
	}
	blob, err := m.encode()
	if err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	wire := bundleWire{
		Magic:       bundleMagic,
		Version:     BundleVersion,
		SchemaHash:  m.RawSchema.Hash(),
		TrainSeed:   trainSeed,
		ModelBlob:   blob,
		ModelSHA256: sha256.Sum256(blob),
	}
	if err := gob.NewEncoder(w).Encode(wire); err != nil {
		return fmt.Errorf("core: save bundle: %w", err)
	}
	return nil
}

// LoadBundle reads a bundle written by SaveBundle. It refuses every
// format version outside [minBundleVersion, BundleVersion] (a gob stream
// without the bundle header counts as version 0), checks a version-5
// blob against its sha256 before decoding it, and verifies the stored
// schema hash against the decoded model.
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
	if wire.Version >= 5 && sha256.Sum256(wire.ModelBlob) != wire.ModelSHA256 {
		return nil, fmt.Errorf("core: load bundle: model blob does not match its sha256 checksum (corrupt bundle)")
	}
	m, err := decodeModel(wire.ModelBlob)
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
