package gobwire

import (
	"encoding"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The predefined wire type ids, as encoding/gob numbers them.
const (
	tBool      = 1
	tInt       = 2
	tUint      = 3
	tFloat     = 4
	tBytes     = 5
	tString    = 6
	tComplex   = 7
	tInterface = 8
	tWireType  = 16
)

// wireType mirrors encoding/gob's type definition message: exactly one
// field is set for a well-formed definition. Field names and shapes match
// gob's, so a definition decodes through this package's own machinery
// against the builtin descriptions below.
type wireType struct {
	ArrayT           *arrayType
	SliceT           *sliceType
	StructT          *structType
	MapT             *mapType
	GobEncoderT      *gobEncoderType
	BinaryMarshalerT *gobEncoderType
	TextMarshalerT   *gobEncoderType
}

type commonType struct {
	Name string
	Id   int32
}

type arrayType struct {
	CommonType commonType
	Elem       int32
	Len        int
}

type sliceType struct {
	CommonType commonType
	Elem       int32
}

type structType struct {
	CommonType commonType
	Field      []fieldType
}

type fieldType struct {
	Name string
	Id   int32
}

type mapType struct {
	CommonType commonType
	Key, Elem  int32
}

type gobEncoderType struct {
	CommonType commonType
}

// builtin holds the types encoding/gob predefines below firstUserId: the
// basic types (ids 1-8) and its reserved ids (9-15) are defined but not
// composite; ids 16-24 describe the type definition messages themselves.
// As in encoding/gob, streams may name these ids as struct and slice
// types, never as array, map or GobEncoder types, and never as types to
// skip.
var builtin = func() (b [firstUserId]*wireType) {
	for id := tBool; id < tWireType; id++ {
		b[id] = &wireType{}
	}
	st := func(fields ...fieldType) *wireType {
		return &wireType{StructT: &structType{Field: fields}}
	}
	b[16] = st(fieldType{"ArrayT", 17}, fieldType{"SliceT", 19}, fieldType{"StructT", 20}, fieldType{"MapT", 23},
		fieldType{"GobEncoderT", 24}, fieldType{"BinaryMarshalerT", 24}, fieldType{"TextMarshalerT", 24})
	b[17] = st(fieldType{"CommonType", 18}, fieldType{"Elem", tInt}, fieldType{"Len", tInt})
	b[18] = st(fieldType{"Name", tString}, fieldType{"Id", tInt})
	b[19] = st(fieldType{"CommonType", 18}, fieldType{"Elem", tInt})
	b[20] = st(fieldType{"CommonType", 18}, fieldType{"Field", 22})
	b[21] = st(fieldType{"Name", tString}, fieldType{"Id", tInt})
	b[22] = &wireType{SliceT: &sliceType{Elem: 21}}
	b[23] = st(fieldType{"CommonType", 18}, fieldType{"Key", tInt}, fieldType{"Elem", tInt})
	b[24] = st(fieldType{"CommonType", 18})
	return b
}()

func builtinType(id int32) *wireType {
	if id < 0 || id >= firstUserId {
		return nil
	}
	return builtin[id]
}

// wireTypeEngine returns the engine for type definition messages. It
// involves builtin ids only, so one compilation serves every stream.
func wireTypeEngine() *engine {
	wireTypeOnce.Do(func() {
		wireTypeEng = newDecoder().engineFor(tWireType, userTypeOf(reflect.TypeFor[wireType]()))
	})
	return wireTypeEng
}

var (
	wireTypeOnce sync.Once
	wireTypeEng  *engine
)

// recvType decodes the definition of type id from the current message.
func (d *Decoder) recvType(id int32) {
	if id < firstUserId || d.wire[id] != nil {
		fail(errors.New("gobwire: duplicate type received"))
	}
	w := new(wireType)
	d.decodeStruct(wireTypeEngine(), reflect.ValueOf(w).Elem())
	d.wire[id] = w
}

// A decOp decodes one value from the current message into v; ops that
// skip a value get the zero Value.
type decOp func(d *Decoder, v reflect.Value)

// engine decodes a struct field by field (by wire field number), or a
// non-struct value through its one field.
type engine struct {
	fields  []field
	matched int // fields with a destination
}

type field struct {
	op    decOp
	index []int // destination field; nil when the field is skipped
}

// External decoders, as encoding/gob picks them.
const (
	xGob = 1 + iota
	xBinary
)

type gobDecoder interface{ GobDecode([]byte) error }

var (
	gobDecoderType        = reflect.TypeFor[gobDecoder]()
	binaryUnmarshalerType = reflect.TypeFor[encoding.BinaryUnmarshaler]()
)

// userType describes a Go type as the decoder sees it: base is the type
// with its pointers removed; external names a GobDecode or
// UnmarshalBinary method that takes over the decoding.
type userType struct {
	user, base reflect.Type
	external   int
	rcvr       reflect.Type // the external method's receiver type
}

var userTypes sync.Map // reflect.Type → *userType

func userTypeOf(rt reflect.Type) *userType {
	if ut, ok := userTypes.Load(rt); ok {
		return ut.(*userType)
	}
	ut := &userType{user: rt, base: rt}
	slow := rt // walks half as fast, to catch a pointer type that points to itself
	for indir := 0; ut.base.Kind() == reflect.Pointer; indir++ {
		ut.base = ut.base.Elem()
		if ut.base == slow {
			failf("can't represent recursive pointer type %s", ut.base)
		}
		if indir%2 == 0 {
			slow = slow.Elem()
		}
	}
	if rcvr := implementer(rt, gobDecoderType); rcvr != nil {
		ut.external, ut.rcvr = xGob, rcvr
	} else if rcvr := implementer(rt, binaryUnmarshalerType); rcvr != nil {
		ut.external, ut.rcvr = xBinary, rcvr
	}
	got, _ := userTypes.LoadOrStore(rt, ut)
	return got.(*userType)
}

// implementer returns the type, among rt, what it points to and *rt,
// whose method set implements iface, or nil.
func implementer(rt, iface reflect.Type) reflect.Type {
	for t, indir := rt, 0; indir <= 100; indir++ {
		if t.Implements(iface) {
			return t
		}
		if t.Kind() != reflect.Pointer {
			break
		}
		t = t.Elem()
	}
	if rt.Kind() != reflect.Pointer && reflect.PointerTo(rt).Implements(iface) {
		return reflect.PointerTo(rt)
	}
	return nil
}

func isExported(name string) bool {
	r, _ := utf8.DecodeRuneInString(name)
	return unicode.IsUpper(r)
}

// engineFor returns the engine decoding wire type id into ut's Go type.
func (d *Decoder) engineFor(id int32, ut *userType) *engine {
	return cachedEngine(d.engines, engineKey{ut.user, id}, func(e *engine) {
		if ut.base.Kind() == reflect.Struct && ut.external == 0 {
			d.compileStruct(e, id, ut.base)
			return
		}
		if !d.compatible(ut.user, id, map[reflect.Type]int32{}) {
			failf("decoding into local type %s, received remote type %d", ut.user, id)
		}
		e.fields = []field{{op: *d.opFor(id, ut.user, map[reflect.Type]*decOp{})}}
		e.matched = 1
	})
}

// ignoreEngine returns the engine that skips a value of struct wire
// type id.
func (d *Decoder) ignoreEngine(id int32) *engine {
	return cachedEngine(d.ignores, id, func(e *engine) { d.compileStruct(e, id, emptyStruct) })
}

// cachedEngine returns m[k], compiling it on first use. The engine is
// cached before it is filled in, so recursive types find it; a failed
// compilation is dropped.
func cachedEngine[K comparable](m map[K]*engine, k K, compile func(*engine)) *engine {
	if e := m[k]; e != nil {
		return e
	}
	e := new(engine)
	m[k] = e
	done := false
	defer func() {
		if !done {
			delete(m, k)
		}
	}()
	compile(e)
	done = true
	return e
}

var emptyStruct = reflect.TypeFor[struct{}]()

// compileStruct fills e with one field per wire field of struct type id:
// matched by name to a field of rt, else skipped.
func (d *Decoder) compileStruct(e *engine, id int32, rt reflect.Type) {
	w := builtinType(id)
	if w == nil {
		if w = d.wire[id]; w == nil {
			failf("unknown type id %d or corrupted data", id)
		}
	}
	st := w.StructT
	if st == nil {
		failf("type mismatch in decoder: want struct type %s; got non-struct", rt)
	}
	e.fields = make([]field, len(st.Field))
	seen := map[reflect.Type]*decOp{}
	for i, wf := range st.Field {
		if wf.Name == "" {
			failf("empty name for remote field of type %s", st.CommonType.Name)
		}
		sf, ok := rt.FieldByName(wf.Name)
		if !ok || !isExported(wf.Name) {
			e.fields[i] = field{op: *d.ignoreOpFor(wf.Id, map[int32]*decOp{})}
			continue
		}
		if !d.compatible(sf.Type, wf.Id, map[reflect.Type]int32{}) {
			failf("wrong type (%s) for received field %s.%s", sf.Type, st.CommonType.Name, wf.Name)
		}
		e.fields[i] = field{op: *d.opFor(wf.Id, sf.Type, seen), index: sf.Index}
		e.matched++
	}
}

// compatible reports whether wire type id can decode into Go type rt,
// by encoding/gob's rules.
func (d *Decoder) compatible(rt reflect.Type, id int32, inProgress map[reflect.Type]int32) bool {
	if prev, ok := inProgress[rt]; ok {
		return prev == id
	}
	inProgress[rt] = id
	ut := userTypeOf(rt)
	w, ok := d.wire[id]
	if (ut.external == xGob) != (ok && w.GobEncoderT != nil) ||
		(ut.external == xBinary) != (ok && w.BinaryMarshalerT != nil) ||
		(ok && w.TextMarshalerT != nil) {
		return false
	}
	if ut.external != 0 {
		return true
	}
	switch t := ut.base; t.Kind() {
	case reflect.Bool:
		return id == tBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return id == tInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return id == tUint
	case reflect.Float32, reflect.Float64:
		return id == tFloat
	case reflect.Complex64, reflect.Complex128:
		return id == tComplex
	case reflect.String:
		return id == tString
	case reflect.Interface:
		return id == tInterface
	case reflect.Array:
		return ok && w.ArrayT != nil && t.Len() == w.ArrayT.Len && d.compatible(t.Elem(), w.ArrayT.Elem, inProgress)
	case reflect.Map:
		return ok && w.MapT != nil && d.compatible(t.Key(), w.MapT.Key, inProgress) && d.compatible(t.Elem(), w.MapT.Elem, inProgress)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			return id == tBytes
		}
		sw := sliceOf(d, id)
		return sw != nil && d.compatible(userTypeOf(t.Elem()).base, sw.Elem, inProgress)
	case reflect.Struct:
		return true
	}
	return false
}

// sliceOf looks up a slice wire type, builtin ids first.
func sliceOf(d *Decoder, id int32) *sliceType {
	if b := builtinType(id); b != nil {
		return b.SliceT
	}
	if w := d.wire[id]; w != nil {
		return w.SliceT
	}
	return nil
}

// opFor returns the op decoding wire type id into Go type rt (already
// checked compatible). inProgress holds the ops being built, so a
// recursive type refers to its own op.
func (d *Decoder) opFor(id int32, rt reflect.Type, inProgress map[reflect.Type]*decOp) *decOp {
	ut := userTypeOf(rt)
	if ut.external != 0 {
		op := externalOp(ut)
		return &op
	}
	if p := inProgress[rt]; p != nil {
		return p
	}
	t := ut.base
	if k := t.Kind(); int(k) < len(basicOps) && basicOps[k] != nil {
		op := basicOps[k]
		return &op
	}
	var op decOp
	inProgress[rt] = &op
	switch t.Kind() {
	case reflect.Array:
		elem := d.opFor(d.wire[id].ArrayT.Elem, t.Elem(), inProgress)
		op = arrayOp(t, elem)
	case reflect.Map:
		mt := d.wire[id].MapT
		op = mapOp(t, d.opFor(mt.Key, t.Key(), inProgress), d.opFor(mt.Elem, t.Elem(), inProgress))
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			op = decBytes
			break
		}
		if fast := typedSliceOps[t]; fast != nil {
			op = fast
			break
		}
		op = sliceOp(t, d.opFor(sliceOf(d, id).Elem, t.Elem(), inProgress))
	case reflect.Struct:
		e := d.engineFor(id, userTypeOf(t))
		op = func(d *Decoder, v reflect.Value) { d.decodeStruct(e, v) }
	}
	if op == nil {
		failf("decode can't handle type %s", rt)
	}
	return &op
}

// maxIgnoreDepth bounds how deeply nested a skipped type may be.
const maxIgnoreDepth = 10000

// ignoreOpFor returns the op that skips a value of wire type id.
func (d *Decoder) ignoreOpFor(id int32, inProgress map[int32]*decOp) *decOp {
	d.depth++
	defer func() { d.depth-- }()
	if d.depth > maxIgnoreDepth {
		fail(errors.New("gobwire: invalid nesting depth"))
	}
	if p := inProgress[id]; p != nil {
		return p
	}
	var op decOp
	switch id {
	case tBool, tInt, tUint, tFloat:
		op = ignoreUint
	case tComplex:
		op = ignoreTwoUints
	case tBytes, tString:
		op = ignoreBytes
	case tInterface:
		op = ignoreInterface
	}
	if op != nil {
		return &op
	}
	inProgress[id] = &op
	w := d.wire[id]
	switch {
	case w == nil:
		failf("bad data: undefined type %d", id)
	case w.ArrayT != nil:
		elem, n := d.ignoreOpFor(w.ArrayT.Elem, inProgress), w.ArrayT.Len
		op = func(d *Decoder, _ reflect.Value) {
			if d.uint() != uint64(n) {
				failf("length mismatch in ignoreArray")
			}
			d.ignoreElems(*elem, n)
		}
	case w.MapT != nil:
		key, elem := d.ignoreOpFor(w.MapT.Key, inProgress), d.ignoreOpFor(w.MapT.Elem, inProgress)
		op = func(d *Decoder, _ reflect.Value) { d.ignoreMap(*key, *elem) }
	case w.SliceT != nil:
		elem := d.ignoreOpFor(w.SliceT.Elem, inProgress)
		op = func(d *Decoder, _ reflect.Value) { d.ignoreElems(*elem, int(d.uint())) }
	case w.StructT != nil:
		e := d.ignoreEngine(id)
		op = func(d *Decoder, _ reflect.Value) { d.decodeStruct(e, reflect.Value{}) }
	case w.GobEncoderT != nil, w.BinaryMarshalerT != nil, w.TextMarshalerT != nil:
		op = ignoreBytes
	}
	if op == nil {
		failf("bad data: ignore can't handle type %d", id)
	}
	return &op
}

func overflow(t reflect.Type) error {
	return fmt.Errorf("gobwire: value out of range for %s", t)
}
