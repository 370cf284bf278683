package lib

// Options has one field main sets, one only an Example sets and one
// nothing else sets.
type Options struct {
	Set     int
	Example int
	Unset   int
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

// counter has a field Count reads and one only a test reads: Count
// names it in a literal and assigns it.
type counter struct{ n, last int }

// Count is reached from main.
func Count() int {
	c := counter{last: 1}
	c.last = 2
	return c.n
}
