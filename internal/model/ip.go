package model

import "fmt"

// IP and port hierarchies for the network-log schema of Table 1.
//
// IPv4: IP -> /24 subnet -> /16 subnet -> /8 subnet -> ALL.
// Codes are the integer prefixes (ip, ip>>8, ip>>16, ip>>24), which are
// monotone under right-shift, satisfying Proposition 1.
//
// Port: Port -> Class -> ALL, where Class partitions the port space
// into well-known (0-1023), registered (1024-49151) and dynamic
// (49152-65535) ranges; the class boundaries are increasing in port
// number, so the mapping is monotone.

// IPv4Dimension builds the Source/Target hierarchy of Figure 1.
func IPv4Dimension(name string) *Dimension {
	return MustDimension(name,
		DomainSpec{
			Name:   "IP",
			Div:    256, // c >> 8
			Fanout: 256,
			Format: func(c int64) string { return formatIPPrefix(c, 4) },
		},
		DomainSpec{
			Name:   "/24",
			Div:    256, // c >> 8
			Fanout: 256,
			Format: func(c int64) string { return formatIPPrefix(c, 3) },
		},
		DomainSpec{
			Name:   "/16",
			Div:    256, // c >> 8
			Fanout: 256,
			Format: func(c int64) string { return formatIPPrefix(c, 2) },
		},
		DomainSpec{
			Name:   "/8",
			UpOne:  func(int64) int64 { return 0 },
			Fanout: 256,
			Format: func(c int64) string { return formatIPPrefix(c, 1) },
		},
	)
}

// IPCode converts dotted-quad octets to a base IP code.
func IPCode(a, b, c, d int) int64 {
	return int64(a)<<24 | int64(b)<<16 | int64(c)<<8 | int64(d)
}

func formatIPPrefix(c int64, octets int) string {
	switch octets {
	case 4:
		return fmt.Sprintf("%d.%d.%d.%d", c>>24&0xff, c>>16&0xff, c>>8&0xff, c&0xff)
	case 3:
		return fmt.Sprintf("%d.%d.%d.*", c>>16&0xff, c>>8&0xff, c&0xff)
	case 2:
		return fmt.Sprintf("%d.%d.*.*", c>>8&0xff, c&0xff)
	default:
		return fmt.Sprintf("%d.*.*.*", c&0xff)
	}
}

// Port class codes.
const (
	PortClassWellKnown  = 0
	PortClassRegistered = 1
	PortClassDynamic    = 2
)

// PortDimension builds the TargetPort hierarchy of Figure 1
// (Port -> PortRange -> ALL).
func PortDimension(name string) *Dimension {
	return MustDimension(name,
		DomainSpec{
			Name: "Port",
			UpOne: func(c int64) int64 {
				switch {
				case c < 1024:
					return PortClassWellKnown
				case c < 49152:
					return PortClassRegistered
				default:
					return PortClassDynamic
				}
			},
			Fanout:    65536.0 / 3,
			MinFanout: 1024, // the well-known class is the smallest
		},
		DomainSpec{
			Name:   "Class",
			UpOne:  func(int64) int64 { return 0 },
			Fanout: 3,
			Format: func(c int64) string {
				switch c {
				case PortClassWellKnown:
					return "well-known"
				case PortClassRegistered:
					return "registered"
				default:
					return "dynamic"
				}
			},
		},
	)
}
