package core

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseFaultClass is the inverse of FaultClass.String. It accepts every
// name the model emits (including "unknown") so trace streams round-trip.
func ParseFaultClass(s string) (FaultClass, error) {
	for c := ClassUnknown; c < NumFaultClasses; c++ {
		if c.String() == s {
			return c, nil
		}
	}
	return ClassUnknown, fmt.Errorf("core: unknown fault class %q", s)
}

// ParseMaintenanceAction is the inverse of MaintenanceAction.String.
func ParseMaintenanceAction(s string) (MaintenanceAction, error) {
	for a := ActionNone; a <= ActionInvestigate; a++ {
		if a.String() == s {
			return a, nil
		}
	}
	return ActionNone, fmt.Errorf("core: unknown maintenance action %q", s)
}

// ParseFRU is the inverse of FRU.String: "component[3]" for hardware FRUs,
// "job[das/job@3]" for software FRUs.
func ParseFRU(s string) (FRU, error) {
	switch {
	case strings.HasPrefix(s, "component[") && strings.HasSuffix(s, "]"):
		n, err := strconv.Atoi(s[len("component[") : len(s)-1])
		if err != nil {
			return FRU{}, fmt.Errorf("core: bad FRU %q: %v", s, err)
		}
		return HardwareFRU(n), nil
	case strings.HasPrefix(s, "job[") && strings.HasSuffix(s, "]"):
		body := s[len("job[") : len(s)-1]
		at := strings.LastIndex(body, "@")
		if at < 0 {
			return FRU{}, fmt.Errorf("core: bad FRU %q: missing @component", s)
		}
		n, err := strconv.Atoi(body[at+1:])
		if err != nil {
			return FRU{}, fmt.Errorf("core: bad FRU %q: %v", s, err)
		}
		return SoftwareFRU(n, body[:at]), nil
	}
	return FRU{}, fmt.Errorf("core: bad FRU %q", s)
}
