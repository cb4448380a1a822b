package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestOutput pins what the example prints: its stdout must equal
// testdata/output.txt byte for byte. After an intended change, regenerate
// the file with `go run . > testdata/output.txt` from this directory.
func TestOutput(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()

	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from testdata/output.txt; got:\n%s", got)
	}
}
