package report

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ImageDir is the image store of the journals in dir: each report image
// once, content-addressed, so the journals of one directory share it and
// identical images are stored once.
func ImageDir(dir string) string { return filepath.Join(dir, "images") }

// EncodeImage returns an image's stored form, its JSON encoding, and its
// content address, the hex SHA-256 of those bytes.
func EncodeImage(img *Image) (addr string, data []byte) {
	data, _ = json.Marshal(img) // strings, bytes and a string map always encode
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), data
}

// PutImage stores data under addr in the image store dir unless it is
// there already: written under a temporary name, fsynced, renamed into
// place, and the directory fsynced, so once PutImage returns a record
// naming the image may be appended.
func PutImage(dir, addr string, data []byte) error {
	path := filepath.Join(dir, addr)
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("report: image store: %w", err)
	}
	f, err := os.CreateTemp(dir, ".tmp-")
	if err != nil {
		return fmt.Errorf("report: image store: %w", err)
	}
	defer os.Remove(f.Name()) //nolint:errcheck — gone after the rename, garbage otherwise
	_, err = f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	var d *os.File
	if err == nil {
		d, err = os.Open(dir) // its fsync makes the rename durable
	}
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("report: storing image %s: %w", addr, err)
	}
	return nil
}

// LoadImage reads the image stored under addr in the image store dir,
// refusing one whose bytes do not hash to addr.
func LoadImage(dir, addr string) (*Image, error) {
	data, err := os.ReadFile(filepath.Join(dir, addr))
	if err != nil {
		return nil, fmt.Errorf("report: loading image: %w", err)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != addr {
		return nil, fmt.Errorf("report: image %s does not hash to its address", addr)
	}
	img := new(Image)
	if err := json.Unmarshal(data, img); err != nil {
		return nil, fmt.Errorf("report: decoding image %s: %w", addr, err)
	}
	return img, nil
}
