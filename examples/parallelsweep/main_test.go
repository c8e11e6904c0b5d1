package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutGolden pins the example's report byte for byte against
// testdata/stdout.txt, so a rewrite of how it collects metrics cannot
// change a digit it prints. For an intended change, regenerate the file
// with `go run ./examples/parallelsweep > examples/parallelsweep/testdata/stdout.txt`.
func TestStdoutGolden(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	main()
	os.Stdout = stdout
	w.Close()
	got := <-done

	path := filepath.Join("testdata", "stdout.txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
