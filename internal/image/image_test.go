package image

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegisterAndRead(t *testing.T) {
	c := NewCatalog()
	img, err := c.Register("ubuntu-10.04", 10*BlockSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	if img.Blocks() != 10 || img.Format != Raw {
		t.Fatalf("blocks=%d format=%v", img.Blocks(), img.Format)
	}
	b0, err := img.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := img.ReadBlock(1)
	if bytes.Equal(b0, b1) {
		t.Fatal("distinct blocks have identical pristine content")
	}
	// Deterministic.
	again, _ := img.ReadBlock(0)
	if !bytes.Equal(b0, again) {
		t.Fatal("pristine content not deterministic")
	}
}

func TestRegisterRoundsUpToBlock(t *testing.T) {
	c := NewCatalog()
	img, _ := c.Register("odd", BlockSize+1, 1)
	if img.Size != 2*BlockSize {
		t.Fatalf("Size = %d", img.Size)
	}
}

func TestRegisterValidation(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Register("", BlockSize, 1); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := c.Register("x", 0, 1); err == nil {
		t.Fatal("zero size accepted")
	}
	c.Register("dup", BlockSize, 1)
	if _, err := c.Register("dup", BlockSize, 1); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := NewCatalog()
	img, _ := c.Register("base", 4*BlockSize, 7)
	data := bytes.Repeat([]byte{0xAB}, BlockSize)
	if err := img.WriteBlock(2, data); err != nil {
		t.Fatal(err)
	}
	got, _ := img.ReadBlock(2)
	if !bytes.Equal(got, data) {
		t.Fatal("read did not return last write")
	}
	// Returned slice is a copy: mutating it must not corrupt the image.
	got[0] = 0xFF
	got2, _ := img.ReadBlock(2)
	if got2[0] != 0xAB {
		t.Fatal("ReadBlock aliases internal storage")
	}
	// Writing also copies the caller's slice.
	data[0] = 0xEE
	got3, _ := img.ReadBlock(2)
	if got3[0] != 0xAB {
		t.Fatal("WriteBlock aliases caller slice")
	}
}

func TestWriteValidation(t *testing.T) {
	c := NewCatalog()
	img, _ := c.Register("base", 2*BlockSize, 7)
	if err := img.WriteBlock(5, make([]byte, BlockSize)); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if err := img.WriteBlock(0, make([]byte, 10)); err == nil {
		t.Fatal("short write accepted")
	}
	if _, err := img.ReadBlock(-1); err == nil {
		t.Fatal("negative read accepted")
	}
}

func TestCOWCloneSemantics(t *testing.T) {
	c := NewCatalog()
	base, _ := c.Register("base", 8*BlockSize, 99)
	baseData := bytes.Repeat([]byte{0x01}, BlockSize)
	base.WriteBlock(3, baseData)

	clone, err := c.Clone("base", "vm-disk-1")
	if err != nil {
		t.Fatal(err)
	}
	if clone.Format != COW || clone.Backing() != base {
		t.Fatal("clone not COW-backed")
	}
	if clone.AllocatedBytes() != 0 {
		t.Fatalf("fresh clone allocates %d bytes", clone.AllocatedBytes())
	}
	// Reads fall through to the backing image, including its writes.
	got, _ := clone.ReadBlock(3)
	if !bytes.Equal(got, baseData) {
		t.Fatal("clone does not see backing write")
	}
	p0, _ := base.ReadBlock(0)
	g0, _ := clone.ReadBlock(0)
	if !bytes.Equal(p0, g0) {
		t.Fatal("clone pristine read differs from base")
	}
	// Clone write does not leak into base.
	mine := bytes.Repeat([]byte{0x77}, BlockSize)
	clone.WriteBlock(3, mine)
	got, _ = clone.ReadBlock(3)
	if !bytes.Equal(got, mine) {
		t.Fatal("clone write not visible in clone")
	}
	got, _ = base.ReadBlock(3)
	if !bytes.Equal(got, baseData) {
		t.Fatal("clone write leaked into base")
	}
	if clone.AllocatedBytes() != BlockSize {
		t.Fatalf("clone allocates %d after one write", clone.AllocatedBytes())
	}
	// Base write after clone IS visible through unwritten clone blocks
	// (qcow2 backing semantics).
	newBase := bytes.Repeat([]byte{0x05}, BlockSize)
	base.WriteBlock(7, newBase)
	got, _ = clone.ReadBlock(7)
	if !bytes.Equal(got, newBase) {
		t.Fatal("clone does not read through to backing for unwritten block")
	}
}

func TestCloneChain(t *testing.T) {
	c := NewCatalog()
	c.Register("base", 4*BlockSize, 5)
	c.Clone("base", "mid")
	mid, _ := c.Get("mid")
	data := bytes.Repeat([]byte{0x42}, BlockSize)
	mid.WriteBlock(1, data)
	leaf, err := c.Clone("mid", "leaf")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := leaf.ReadBlock(1)
	if !bytes.Equal(got, data) {
		t.Fatal("two-level chain read failed")
	}
}

func TestFullCloneIndependence(t *testing.T) {
	c := NewCatalog()
	base, _ := c.Register("base", 6*BlockSize, 11)
	custom := bytes.Repeat([]byte{0x33}, BlockSize)
	base.WriteBlock(2, custom)
	full, err := c.FullClone("base", "full")
	if err != nil {
		t.Fatal(err)
	}
	if full.Format != Raw || full.Backing() != nil {
		t.Fatal("full clone still COW")
	}
	got, _ := full.ReadBlock(2)
	if !bytes.Equal(got, custom) {
		t.Fatal("full clone missing base's written block")
	}
	// Fully independent: base writes after cloning are invisible.
	base.WriteBlock(4, custom)
	got, _ = full.ReadBlock(4)
	if bytes.Equal(got, custom) {
		t.Fatal("full clone sees post-clone base write")
	}
	// Full clone of a COW chain flattens it.
	c.Clone("base", "cow")
	cow, _ := c.Get("cow")
	cow.WriteBlock(5, custom)
	flat, err := c.FullClone("cow", "flat")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = flat.ReadBlock(5)
	if !bytes.Equal(got, custom) {
		t.Fatal("flattened clone missing chain write")
	}
}

func TestProvisioningCostAsymmetry(t *testing.T) {
	c := NewCatalog()
	base, _ := c.Register("base", 100*BlockSize, 1)
	base.WriteBlock(0, bytes.Repeat([]byte{1}, BlockSize))
	cow, _ := c.Clone("base", "cow")
	full, _ := c.FullClone("base", "full")
	if cow.AllocatedBytes() != 0 {
		t.Fatalf("COW clone allocated %d", cow.AllocatedBytes())
	}
	if full.AllocatedBytes() == 0 {
		t.Fatal("full clone allocated nothing despite modified base")
	}
}

func TestDeleteRules(t *testing.T) {
	c := NewCatalog()
	c.Register("base", BlockSize, 1)
	c.Clone("base", "child")
	if err := c.Delete("base"); !errors.Is(err, ErrInUse) {
		t.Fatalf("deleting backed image: %v", err)
	}
	if err := c.Delete("child"); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("base"); err != nil {
		t.Fatalf("delete after last clone removed: %v", err)
	}
	if err := c.Delete("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCloneErrors(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Clone("nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	c.Register("a", BlockSize, 1)
	c.Register("b", BlockSize, 1)
	if _, err := c.Clone("a", "b"); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.FullClone("nope", "x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestList(t *testing.T) {
	c := NewCatalog()
	c.Register("zeta", BlockSize, 1)
	c.Register("alpha", BlockSize, 1)
	got := c.List()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("List = %v", got)
	}
}

// Property: for any write set applied to a clone, every block reads back as
// either the clone's last write or the base content — never a mix.
func TestPropertyCOWReadYourWrites(t *testing.T) {
	f := func(writes []uint8) bool {
		c := NewCatalog()
		base, _ := c.Register("base", 16*BlockSize, 3)
		clone, _ := c.Clone("base", "c")
		last := map[int64]byte{}
		for i, w := range writes {
			idx := int64(w % 16)
			val := byte(i + 1)
			clone.WriteBlock(idx, bytes.Repeat([]byte{val}, BlockSize))
			last[idx] = val
		}
		for idx := int64(0); idx < 16; idx++ {
			got, err := clone.ReadBlock(idx)
			if err != nil {
				return false
			}
			if v, ok := last[idx]; ok {
				if !bytes.Equal(got, bytes.Repeat([]byte{v}, BlockSize)) {
					return false
				}
			} else {
				want, _ := base.ReadBlock(idx)
				if !bytes.Equal(got, want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// fullCloneOracle is the full clone FullClone replaced: it reads every
// block of parent through its chain, regenerates the block's seed-pristine
// content, and stores the blocks that differ in a raw image seeded with
// parent's own seed.
func fullCloneOracle(parent *Image) *Image {
	img := &Image{Name: "oracle", Format: Raw, Size: parent.Size, seed: parent.seed}
	for idx := int64(0); idx < parent.Blocks(); idx++ {
		b, err := parent.ReadBlock(idx)
		if err != nil {
			panic(err)
		}
		want := make([]byte, BlockSize)
		img.pristine(idx, want)
		if !bytes.Equal(b, want) {
			if err := img.WriteBlock(idx, b); err != nil {
				panic(err)
			}
		}
	}
	return img
}

// TestFullCloneMatchesOracle full-clones each layer of random raw → COW →
// COW chains with writes at every layer (overwrites across layers and a
// write of the root's pristine bytes among them). Every block of the clone
// reads as the oracle's, writes made to the chain afterwards stay invisible
// to it, and it stores exactly the distinct blocks written in its chain:
// none regenerated, none materialised from a seed.
func TestFullCloneMatchesOracle(t *testing.T) {
	const blocks = 16
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCatalog()
		root, _ := c.Register("root", blocks*BlockSize, uint64(rng.Int63()))
		mid, _ := c.Clone("root", "mid")
		leaf, _ := c.Clone("mid", "leaf")
		chain := []*Image{root, mid, leaf}
		wrote := make([]map[int64]bool, len(chain)) // per layer
		write := func(depth int) {
			// Random writes land in blocks 0..11 and the pristine
			// write in 12, so 13..15 are never written and a clone
			// that materialises every block stores too many.
			idx := rng.Int63n(blocks - 4)
			data := make([]byte, BlockSize)
			rng.Read(data)
			if err := chain[depth].WriteBlock(idx, data); err != nil {
				t.Fatal(err)
			}
			wrote[depth][idx] = true
		}
		for depth := range chain {
			wrote[depth] = map[int64]bool{}
		}
		pristine := make([]byte, BlockSize)
		root.pristine(blocks-4, pristine)
		root.WriteBlock(blocks-4, pristine)
		wrote[0][blocks-4] = true
		for depth, img := range chain {
			for i := 0; i < 1+rng.Intn(5); i++ {
				write(depth)
			}
			distinct := map[int64]bool{}
			for _, layer := range wrote[:depth+1] {
				for idx := range layer {
					distinct[idx] = true
				}
			}
			oracle := fullCloneOracle(img)
			full, err := c.FullClone(img.Name, fmt.Sprintf("full-%d", depth))
			if err != nil {
				t.Fatal(err)
			}
			if got := full.StoredBlocks(); got != len(distinct) {
				t.Fatalf("seed %d: clone of %s stores %d blocks, its chain wrote %d",
					seed, img.Name, got, len(distinct))
			}
			// Later writes anywhere in the chain stay out of the clone.
			for d := range chain {
				write(d)
			}
			for idx := int64(0); idx < blocks; idx++ {
				got, _ := full.ReadBlock(idx)
				want, _ := oracle.ReadBlock(idx)
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d: clone of %s: block %d differs from the oracle", seed, img.Name, idx)
				}
			}
		}
	}
}
