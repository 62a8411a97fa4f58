package wire

import (
	"fmt"
	"reflect"
	"sort"
)

// The recursive reflection walker Marshal and Unmarshal ran before
// codecs were compiled per type (codec.go). It is no longer part of
// the program; it stays here as the parity oracle: the differential
// tests and FuzzCodecParity require the compiled codecs to produce its
// bytes, its values and its errors.

// walkerMarshal drives the walker exactly as the pre-codec Marshal did.
func walkerMarshal(v any) ([]byte, error) {
	e := NewEncoder()
	if err := marshalValue(e, reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

func walkerUnmarshal(data []byte, out any) error {
	d := NewDecoder(data)
	if err := unmarshalValue(d, reflect.ValueOf(out).Elem()); err != nil {
		return err
	}
	if !d.Finished() {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadValue, d.Remaining())
	}
	return nil
}

func marshalValue(e *Encoder, v reflect.Value) error {
	if !v.IsValid() {
		return fmt.Errorf("wire: cannot marshal invalid value")
	}
	switch v.Kind() {
	case reflect.Bool:
		e.PutBool(v.Bool())
	case reflect.Int16:
		e.PutInt16(int16(v.Int()))
	case reflect.Int32:
		e.PutInt32(int32(v.Int()))
	case reflect.Int64, reflect.Int:
		e.PutInt64(v.Int())
	case reflect.Uint16:
		e.PutUint16(uint16(v.Uint()))
	case reflect.Uint32:
		e.PutUint32(uint32(v.Uint()))
	case reflect.Uint64, reflect.Uint:
		e.PutUint64(v.Uint())
	case reflect.Uint8:
		e.PutUint16(uint16(v.Uint()))
	case reflect.Float64:
		e.PutFloat64(v.Float())
	case reflect.String:
		if v.Len() >= 0xffff {
			// Long strings travel as byte sequences.
			e.PutUint16(0xffff)
			e.PutBytes([]byte(v.String()))
			return nil
		}
		return e.PutString(v.String())
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			e.PutBytes(v.Bytes())
			return nil
		}
		e.PutCount(v.Len())
		for i := 0; i < v.Len(); i++ {
			if err := marshalValue(e, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := marshalValue(e, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		keys := v.MapKeys()
		ks := make([]string, 0, len(keys))
		byKey := make(map[string]reflect.Value, len(keys))
		for _, k := range keys {
			enc := NewEncoder()
			if err := marshalValue(enc, k); err != nil {
				return err
			}
			s := string(enc.Bytes())
			ks = append(ks, s)
			byKey[s] = k
		}
		sort.Strings(ks)
		e.PutCount(len(ks))
		for _, s := range ks {
			e.buf = append(e.buf, s...)
			if err := marshalValue(e, v.MapIndex(byKey[s])); err != nil {
				return err
			}
		}
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if err := marshalValue(e, v.Field(i)); err != nil {
				return fmt.Errorf("field %s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	case reflect.Pointer:
		// CHOICE { absent(0), present(1) value }.
		if v.IsNil() {
			e.PutUint16(0)
		} else {
			e.PutUint16(1)
			return marshalValue(e, v.Elem())
		}
	default:
		return fmt.Errorf("wire: unsupported kind %s", v.Kind())
	}
	return nil
}

func unmarshalValue(d *Decoder, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Bool:
		b, err := d.Bool()
		if err != nil {
			return err
		}
		v.SetBool(b)
	case reflect.Int16:
		n, err := d.Int16()
		if err != nil {
			return err
		}
		v.SetInt(int64(n))
	case reflect.Int32:
		n, err := d.Int32()
		if err != nil {
			return err
		}
		v.SetInt(int64(n))
	case reflect.Int64, reflect.Int:
		n, err := d.Int64()
		if err != nil {
			return err
		}
		if v.OverflowInt(n) {
			return fmt.Errorf("%w: %d overflows %s", ErrBadValue, n, v.Type())
		}
		v.SetInt(n)
	case reflect.Uint16, reflect.Uint8:
		n, err := d.Uint16()
		if err != nil {
			return err
		}
		if v.OverflowUint(uint64(n)) {
			return fmt.Errorf("%w: %d overflows %s", ErrBadValue, n, v.Type())
		}
		v.SetUint(uint64(n))
	case reflect.Uint32:
		n, err := d.Uint32()
		if err != nil {
			return err
		}
		v.SetUint(uint64(n))
	case reflect.Uint64, reflect.Uint:
		n, err := d.Uint64()
		if err != nil {
			return err
		}
		if v.OverflowUint(n) {
			return fmt.Errorf("%w: %d overflows %s", ErrBadValue, n, v.Type())
		}
		v.SetUint(n)
	case reflect.Float64:
		f, err := d.Float64()
		if err != nil {
			return err
		}
		v.SetFloat(f)
	case reflect.String:
		n, err := d.Uint16()
		if err != nil {
			return err
		}
		if n == 0xffff {
			b, err := d.Bytes()
			if err != nil {
				return err
			}
			v.SetString(string(b))
			return nil
		}
		b, err := d.take(int(n))
		if err != nil {
			return err
		}
		v.SetString(string(b))
		if n%2 == 1 {
			if _, err := d.take(1); err != nil {
				return err
			}
		}
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			b, err := d.Bytes()
			if err != nil {
				return err
			}
			v.SetBytes(b)
			return nil
		}
		n, err := d.Count()
		if err != nil {
			return err
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			if err := unmarshalValue(d, s.Index(i)); err != nil {
				return err
			}
		}
		v.Set(s)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := unmarshalValue(d, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		n, err := d.Count()
		if err != nil {
			return err
		}
		m := reflect.MakeMapWithSize(v.Type(), n)
		for i := 0; i < n; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			if err := unmarshalValue(d, k); err != nil {
				return err
			}
			val := reflect.New(v.Type().Elem()).Elem()
			if err := unmarshalValue(d, val); err != nil {
				return err
			}
			m.SetMapIndex(k, val)
		}
		v.Set(m)
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			if err := unmarshalValue(d, v.Field(i)); err != nil {
				return fmt.Errorf("field %s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
	case reflect.Pointer:
		present, err := d.Uint16()
		if err != nil {
			return err
		}
		switch present {
		case 0:
			v.SetZero()
		case 1:
			p := reflect.New(v.Type().Elem())
			if err := unmarshalValue(d, p.Elem()); err != nil {
				return err
			}
			v.Set(p)
		default:
			return fmt.Errorf("%w: choice designator %d", ErrBadValue, present)
		}
	default:
		return fmt.Errorf("wire: unsupported kind %s", v.Kind())
	}
	return nil
}
