package uppar

import "testing"

func TestLocalExchangeSPSC(t *testing.T) {
	e := newLocalExchange(4, 64)
	if _, ok := e.poll(); ok {
		t.Fatal("empty ring polled a batch")
	}
	for i := 0; i < 4; i++ {
		data, ok := e.Acquire()
		if !ok {
			t.Fatalf("acquire %d failed", i)
		}
		data[0] = byte(i)
		if err := e.Post(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.Acquire(); ok {
		t.Fatal("acquired beyond capacity")
	}
	for i := 0; i < 4; i++ {
		data, ok := e.poll()
		if !ok || data[0] != byte(i) {
			t.Fatalf("poll %d: %v %v", i, data, ok)
		}
		if err := e.release(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.Acquire(); !ok {
		t.Fatal("release did not free capacity")
	}
	e.close()
	if _, ok := e.Acquire(); ok {
		t.Fatal("acquire after close")
	}
}
