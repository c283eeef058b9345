package stream

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"testing"
)

// contentETagOracle is contentETag as it was written before it hashed and
// formatted in place: fnv.New64a over the name and the size's big-endian
// bytes, printed with fmt. Clients hold validators across deploys, so the
// bytes must not change.
func contentETagOracle(name string, size int64) string {
	h := fnv.New64a()
	io.WriteString(h, name)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(size))
	h.Write(b[:])
	return fmt.Sprintf("\"%016x\"", h.Sum64())
}

func TestContentETagMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	names := []string{"", "videos/1.vcf", "seg/12/720p/3", "ünïcode/ø.vcf"}
	sizes := []int64{0, 1, 255, 256, 1 << 32, -1, 1<<63 - 1}
	for range 2000 {
		name := make([]byte, rng.Intn(40))
		rng.Read(name)
		names = append(names, string(name))
		sizes = append(sizes, rng.Int63()>>rng.Intn(63))
	}
	for i, name := range names {
		size := sizes[i%len(sizes)]
		if got, want := contentETag(name, size), contentETagOracle(name, size); got != want {
			t.Fatalf("contentETag(%q, %d) = %s, want %s", name, size, got, want)
		}
	}
}
