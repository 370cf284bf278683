package llm

import (
	"reflect"

	"vectorliterag/internal/des"
)

// queueCaps returns the capacities of the arrays behind the instance's
// waiting, prefilling and decode queues. des.Queue keeps its array
// unexported, so the array is read by reflection.
func (in *Instance) queueCaps() [3]int {
	return [3]int{queueCap(&in.waiting), queueCap(&in.prefilling), queueCap(&in.run)}
}

func queueCap[T any](q *des.Queue[T]) int {
	return reflect.ValueOf(q).Elem().FieldByName("items").Cap()
}
