package model

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV drives the CSV parser and the builder behind it with
// arbitrary input. Inputs the parser accepts must yield a structurally
// sound database (every grade in [0, 1], non-increasing sorted lists, a
// random access index that agrees with sorted access) that round-trips
// through WriteCSV byte-stably at the value level. Dense ids exercise the
// grade column and sparse or extreme ids the rank map.
func FuzzReadCSV(f *testing.F) {
	f.Add("object,attr1\n1,0.5\n")
	f.Add("object,attr1,attr2\n1,0.9,0.1\n2,0.3,0.8\n3,0.5,0.5\n")
	f.Add("object,attr1\n1,NaN\n")
	f.Add("object,attr1\n1,+Inf\n")
	f.Add("object,attr1\n1,2.5\n2,-1\n")
	f.Add("object,attr1\n")
	f.Add("object\n1\n")
	f.Add("object,attr1\n1,0.5\n1,0.7\n")
	f.Add("object,attr1\nx,0.5\n")

	f.Fuzz(func(t *testing.T, input string) {
		db, err := ReadCSV(strings.NewReader(input))
		if err != nil {
			return // rejected input: any error is acceptable, panics are not
		}
		if db.N() < 1 || db.M() < 1 {
			t.Fatalf("accepted database has M=%d N=%d", db.M(), db.N())
		}
		for i := 0; i < db.M(); i++ {
			l := db.List(i)
			if l.Len() != db.N() {
				t.Fatalf("list %d has %d entries, want N=%d", i, l.Len(), db.N())
			}
			for pos := 0; pos < l.Len(); pos++ {
				e := l.At(pos)
				if !(e.Grade >= 0 && e.Grade <= 1) {
					t.Fatalf("list %d holds object %d at grade %v, outside [0, 1]", i, e.Object, e.Grade)
				}
				if pos > 0 && e.Grade > l.At(pos-1).Grade {
					t.Fatalf("list %d increases at position %d: %v after %v",
						i, pos, e.Grade, l.At(pos-1).Grade)
				}
				if g, ok := l.GradeOf(e.Object); !ok || g != e.Grade {
					t.Fatalf("list %d: GradeOf(%d) = %v,%v; sorted access has %v at position %d",
						i, e.Object, g, ok, e.Grade, pos)
				}
			}
		}

		var buf bytes.Buffer
		if err := WriteCSV(&buf, db); err != nil {
			t.Fatalf("WriteCSV on accepted database: %v", err)
		}
		db2, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading WriteCSV output: %v\n%s", err, buf.String())
		}
		if db2.M() != db.M() || db2.N() != db.N() {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)",
				db.M(), db.N(), db2.M(), db2.N())
		}
		objs, objs2 := db.Objects(), db2.Objects()
		for i := range objs {
			if objs[i] != objs2[i] {
				t.Fatalf("round trip changed object %d: %d -> %d", i, objs[i], objs2[i])
			}
			g, g2 := db.Grades(objs[i]), db2.Grades(objs[i])
			for j := range g {
				if g[j] != g2[j] {
					t.Fatalf("round trip changed grade of object %d list %d: %v -> %v",
						objs[i], j, g[j], g2[j])
				}
			}
		}
	})
}
