// Package app violates the cross-package contracts exported by enc and
// bufpool. Both findings require facts to have traveled from the
// dependency packages — an intra-package analysis cannot see either
// one.
package app

import (
	"errors"

	"autoviewvet/internal/bufpool"
	"autoviewvet/internal/enc"
	"autoviewvet/internal/nn"
)

var global nn.Vec

var errOops = errors.New("oops")

// StoreEmbedding stores enc.Embed's arena-backed result in a global.
func StoreEmbedding(a *nn.Arena) {
	global = enc.Embed(a, 4)
}

// UseBuf leaks the pooled buffer on the error path.
func UseBuf(fail bool) error {
	b := bufpool.GetBuf()
	if fail {
		return errOops
	}
	bufpool.PutBuf(b)
	return nil
}
