package model

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV serializes the database as rows of "id,g1,g2,...,gm", one row per
// object in ascending id order, with a header line. The format is consumed
// by ReadCSV and by cmd/topk.
func WriteCSV(w io.Writer, db *Database) error {
	cw := csv.NewWriter(w)
	header := make([]string, db.M()+1)
	header[0] = "object"
	for i := 1; i <= db.M(); i++ {
		header[i] = fmt.Sprintf("attr%d", i)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, db.M()+1)
	for _, obj := range db.Objects() {
		row[0] = strconv.Itoa(int(obj))
		for i, g := range db.Grades(obj) {
			row[i+1] = strconv.FormatFloat(float64(g), 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a database in the WriteCSV format. The header row is
// required; m is inferred from it. Every grade must lie in [0, 1], the
// paper's grade domain: building the database rejects any other.
func ReadCSV(r io.Reader) (*Database, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("model: reading CSV header: %w", err)
	}
	if len(header) < 2 {
		return nil, fmt.Errorf("model: CSV needs an object column and at least one attribute column")
	}
	m := len(header) - 1
	b := NewBuilder(m)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("model: reading CSV line %d: %w", line, err)
		}
		if len(rec) != m+1 {
			return nil, fmt.Errorf("model: CSV line %d has %d fields, want %d", line, len(rec), m+1)
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("model: CSV line %d object id %q: %w", line, rec[0], err)
		}
		grades := make([]Grade, m)
		for i := 0; i < m; i++ {
			f, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("model: CSV line %d grade %d %q: %w", line, i+1, rec[i+1], err)
			}
			grades[i] = Grade(f)
		}
		if err := b.Add(ObjectID(id), grades...); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
