package leaktest

import (
	"math"
	"reflect"
	"strings"
)

// Census walks everything reachable from root — through pointers,
// slices, arrays, maps, interfaces and struct fields, exported or not —
// and reports how many distinct objects of each pointed-to type it met
// (keyed by reflect.Type.String(), e.g. "lb.plan") and a hash of every
// value it read. Two uses: a retention bound ("after all that, the
// domain still reaches at most one partition") and a read-only check
// ("three jobs later the shared structure hashes the same") that needs
// no accessor or fingerprint method on the types under test and covers
// whatever is hung on them tomorrow.
//
// Channels, functions and unsafe pointers are not followed, and the
// synchronisation types of sync and sync/atomic are skipped: their
// state is not content. Map entries hash order-independently. The walk
// reads without locks; the caller makes sure nothing is writing.
func Census(root any) (objects map[string]int, hash uint64) {
	c := census{objects: map[string]int{}, seen: map[visit]uint64{}}
	return c.objects, c.walk(reflect.ValueOf(root))
}

type visit struct {
	at  uintptr
	typ reflect.Type
}

type census struct {
	objects map[string]int
	// seen holds the hash of every object already walked (0 while the
	// walk is still inside it), so an object reached twice hashes the
	// same whichever path a map's iteration order took first.
	seen map[visit]uint64
}

// mix folds x into h, FNV-1a over the eight bytes of x.
func mix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ x&0xff) * 1099511628211
		x >>= 8
	}
	return h
}

func (c *census) walk(v reflect.Value) uint64 {
	if !v.IsValid() {
		return 0
	}
	h := mix(14695981039346656037, uint64(v.Kind()))
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			h = mix(h, 1)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h = mix(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h = mix(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		h = mix(h, math.Float64bits(v.Float()))
	case reflect.String:
		for _, b := range []byte(v.String()) {
			h = mix(h, uint64(b))
		}
	case reflect.Pointer:
		if v.IsNil() {
			break
		}
		at := visit{v.Pointer(), v.Type()}
		sub, met := c.seen[at]
		if !met {
			c.seen[at] = 0
			c.objects[v.Type().Elem().String()]++
			sub = c.walk(v.Elem())
			c.seen[at] = sub
		}
		h = mix(h, sub)
	case reflect.Interface:
		if !v.IsNil() {
			h = mix(h, c.walk(v.Elem()))
		}
	case reflect.Slice, reflect.Array:
		h = mix(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h = mix(h, c.walk(v.Index(i)))
		}
	case reflect.Map:
		var sum uint64
		for it := v.MapRange(); it.Next(); {
			sum += mix(c.walk(it.Key()), c.walk(it.Value()))
		}
		h = mix(h, sum)
	case reflect.Struct:
		if pkg := v.Type().PkgPath(); pkg == "sync" || strings.HasPrefix(pkg, "sync/") {
			break
		}
		for i := 0; i < v.NumField(); i++ {
			h = mix(h, c.walk(v.Field(i)))
		}
	}
	return h
}
