package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
)

// profileLeaves decodes a runtime/pprof CPU profile (gzipped
// profile.proto) and returns the sample count per leaf function: the
// innermost frame of each sample, inlined frames included. Only the
// fields that needs are decoded.
func profileLeaves(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leafLoc uint64
		count   int64
	}
	var (
		samples []sample
		locFunc = map[uint64]uint64{} // location id → leaf function id
		funName = map[uint64]int64{}  // function id → string index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first := true
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packedUvarints(v, b, func(x uint64) {
						if first {
							s.leafLoc, first = x, false
						}
					})
				case 2:
					if s.count == 0 {
						return packedUvarints(v, b, func(x uint64) {
							if s.count == 0 {
								s.count = int64(x)
							}
						})
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if haveLine {
						return nil
					}
					haveLine = true
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, s := range samples {
		idx := funName[locFunc[s.leafLoc]]
		if idx < 0 || int(idx) >= len(strs) {
			return nil, errors.New("profile: bad function name index")
		}
		out[strs[idx]] += float64(s.count)
	}
	return out, nil
}

// protoFields walks the fields of one protobuf message, passing each
// varint field's value or each length-delimited field's bytes to fn.
// Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("profile: unsupported wire type")
		}
	}
	return nil
}

// packedUvarints yields a repeated varint field's values, whether it was
// encoded packed (b non-nil) or as a single value v.
func packedUvarints(v uint64, b []byte, yield func(uint64)) error {
	if b == nil {
		yield(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		yield(x)
		b = b[n:]
	}
	return nil
}
