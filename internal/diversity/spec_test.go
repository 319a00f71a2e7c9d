package diversity

import "testing"

func TestNormalizeFillsZeroFields(t *testing.T) {
	s, err := Spec{Radius: 4}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultSpec()
	if s.Buckets != d.Buckets || s.MinPerBucket != d.MinPerBucket {
		t.Fatalf("Normalize left zero fields unfilled: %+v", s)
	}
	if s.Radius != 4 {
		t.Fatalf("Normalize changed the radius: %+v", s)
	}
	if _, err := (Spec{Radius: -3}).Normalize(); err == nil {
		t.Fatal("Normalize accepted a negative radius")
	}
}
