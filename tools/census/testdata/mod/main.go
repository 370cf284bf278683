package main

import "fixture/internal/lib"

func main() {
	var n lib.Namer = lib.T{}
	_ = lib.Used(lib.Options{Set: 1}) + len(n.Name()) + lib.Count()
}
