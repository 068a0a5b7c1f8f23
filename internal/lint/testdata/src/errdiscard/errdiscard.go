// Fixtures for the errdiscard analyzer.
package errdiscard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
)

func mightFail() error { return errors.New("boom") }

func pair() (int, error) { return 0, errors.New("boom") }

func dropped() {
	mightFail() // want `silently discarded`
}

func droppedGo() {
	go mightFail() // want `silently discarded`
}

func droppedDefer() {
	defer mightFail() // want `silently discarded`
}

func droppedPair() {
	pair() // want `silently discarded`
}

// Guard: explicit blank discards are visible and greppable.
func explicit() {
	_ = mightFail()
	n, _ := pair()
	_ = n
}

// Guard: `_ = err` is the intentional-discard idiom.
func intentional() {
	err := mightFail()
	_ = err
}

// Guard: *bytes.Buffer writes are documented to never fail.
func buffers(b *bytes.Buffer) {
	b.WriteString("x")
	fmt.Fprintf(b, "%d", 1)
}

// Only the two spellings the tree uses are exempt; the method form says
// the same thing.
func viaIO(b *bytes.Buffer) {
	io.WriteString(b, "x") // want `silently discarded`
}

// Guard: handled errors are handled.
func handled() error {
	if err := mightFail(); err != nil {
		return err
	}
	return nil
}
