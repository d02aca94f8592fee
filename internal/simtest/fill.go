package simtest

import (
	"fmt"
	"reflect"
	"testing"
)

// Fill sets every field reachable from the value p points to to a
// non-zero value, distinct where the type allows, with slices of length
// 2. Signed fields get negative values, to cover their sign. A codec
// round trip of a filled value fails for any field its walk does not
// visit.
func Fill(tb testing.TB, p any) {
	tb.Helper()
	var next uint64
	fill(tb, reflect.ValueOf(p).Elem(), &next)
}

func fill(tb testing.TB, v reflect.Value, next *uint64) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(tb, v.Field(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fill(tb, v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(tb, v.Index(i), next)
		}
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		x := -int64(*next)
		for v.OverflowInt(x) {
			x /= 2
		}
		v.SetInt(x)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		x := *next
		for v.OverflowUint(x) {
			x /= 2
		}
		v.SetUint(x)
	default:
		tb.Fatalf("fill: no rule for %s", v.Type())
	}
}
