package workerpanic

import (
	"strings"
	"sync"
	"testing"
)

func TestSlotRethrowsFirstWorkerPanic(t *testing.T) {
	var slot Slot
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer slot.Catch()
		explode()
	}()
	wg.Wait()
	if !slot.Caught() {
		t.Fatal("worker panic not caught")
	}
	defer func() {
		p, ok := recover().(*Panic)
		if !ok {
			t.Fatal("Rethrow did not raise a *Panic")
		}
		if p.Value != "injected" {
			t.Fatalf("panic value %v, want injected", p.Value)
		}
		if !strings.Contains(string(p.Stack), "explode") {
			t.Fatalf("stack does not name the panicking worker frame:\n%s", p.Stack)
		}
	}()
	slot.Rethrow()
	t.Fatal("Rethrow returned after a caught panic")
}

func explode() { panic("injected") }

func TestSlotKeepsNestedPanic(t *testing.T) {
	inner := &Panic{Value: "inner", Stack: []byte("inner stack")}
	var slot Slot
	func() {
		defer slot.Catch()
		panic(inner)
	}()
	func() {
		defer slot.Catch()
		panic("second")
	}()
	defer func() {
		if p := recover(); p != inner {
			t.Fatalf("rethrew %v, want the first (nested) panic unchanged", p)
		}
	}()
	slot.Rethrow()
}

func TestSlotQuiet(t *testing.T) {
	var slot Slot
	func() {
		defer slot.Catch()
	}()
	if slot.Caught() {
		t.Fatal("no panic, but Caught reports one")
	}
	slot.Rethrow() // must not panic
}
