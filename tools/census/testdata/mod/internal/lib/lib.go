package lib

// Options has one field a caller sets and one nothing sets.
type Options struct {
	Set   int
	Unset int
}

// Used is reached from main; reading Unset does not set it.
func Used(o Options) int { return o.Set + o.Unset }

// Dead is referenced by nothing but a test.
func Dead() int { return DeadChain() }

// DeadChain is reached only from Dead.
func DeadChain() int { return 1 }

// Namer is called through by main.
type Namer interface{ Name() string }

// T implements Namer; its Name is reached through the interface.
type T struct{}

func (T) Name() string { return "t" }

// Extra is a method no interface declares and nothing calls.
func (T) Extra() int { return 2 }
