package a

import "testing"

func TestTestOnlyCallers(t *testing.T) {
	DeadFunc()
	if NewOrphan().Size() != 0 || !New(WithLoud()).loud {
		t.Fatal("unexpected")
	}
}
