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

// MarshalText encodes the class by its String name, so a class crosses
// JSON (the warranty state file) in the same spelling traces use.
func (c FaultClass) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText is the inverse of MarshalText; an unknown name is an
// error.
func (c *FaultClass) UnmarshalText(b []byte) error {
	v, err := ParseFaultClass(string(b))
	if err != nil {
		return err
	}
	*c = v
	return nil
}

// MarshalText encodes the action by its String name.
func (a MaintenanceAction) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText is the inverse of MarshalText; an unknown name is an
// error.
func (a *MaintenanceAction) UnmarshalText(b []byte) error {
	v, err := ParseMaintenanceAction(string(b))
	if err != nil {
		return err
	}
	*a = v
	return nil
}
