package model

import "fmt"

// Time hierarchy: Second -> Hour -> Day -> Month -> Year -> ALL.
//
// Codes are dense integers with calendar-correct, monotone mappings:
//
//	Second: UNIX seconds (UTC)
//	Hour:   floor(seconds / 3600)
//	Day:    floor(hours / 24) = days since 1970-01-01
//	Month:  year*12 + (month-1), via civil-calendar conversion
//	Year:   calendar year
//
// The Week domain from Figure 1 is deliberately omitted: a week can
// span two months, which makes the hierarchy non-linear, and the paper
// restricts evaluation to linear hierarchies ("we will ignore the Week
// domain and treat Time as a linear attribute").

const (
	secondsPerHour = 3600
	hoursPerDay    = 24
)

// TimeDimension builds the paper's Time hierarchy over UNIX-second
// base codes.
func TimeDimension(name string) *Dimension {
	return MustDimension(name,
		DomainSpec{
			Name:   "Second",
			Div:    secondsPerHour,
			Fanout: secondsPerHour,
			Format: formatSecond,
		},
		DomainSpec{
			Name:   "Hour",
			Div:    hoursPerDay,
			Fanout: hoursPerDay,
			Format: formatHour,
		},
		DomainSpec{
			Name:      "Day",
			UpOne:     monthOfDay,
			Fanout:    30.44, // average days per month
			MinFanout: 28,    // February
			Format:    formatDay,
		},
		DomainSpec{
			Name:   "Month",
			Div:    12,
			Fanout: 12,
			Format: formatMonth,
		},
		DomainSpec{
			Name:      "Year",
			UpOne:     func(int64) int64 { return 0 },
			Fanout:    50, // nominal span of a dataset in years; estimation only
			MinFanout: 1,
			Format:    nil,
		},
	)
}

// civilFromDays converts days-since-epoch to (year, month[1..12],
// day[1..31]) in the proleptic Gregorian calendar. This is the standard
// Howard Hinnant algorithm, valid over the full int64 day range used in
// practice.
func civilFromDays(z int64) (y int64, m, d int) {
	z += 719468
	era := floorDiv(z, 146097)
	doe := z - era*146097                                  // [0, 146096]
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // [0, 399]
	y = yoe + era*400                                      //
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // [0, 365]
	mp := (5*doy + 2) / 153                                // [0, 11]
	d = int(doy - (153*mp+2)/5 + 1)                        // [1, 31]
	if mp < 10 {
		m = int(mp + 3)
	} else {
		m = int(mp - 9)
	}
	if m <= 2 {
		y++
	}
	return y, m, d
}

// daysFromCivil is the inverse of civilFromDays.
func daysFromCivil(y int64, m, d int) int64 {
	if m <= 2 {
		y--
	}
	era := floorDiv(y, 400)
	yoe := y - era*400 // [0, 399]
	var mp int64
	if m > 2 {
		mp = int64(m - 3)
	} else {
		mp = int64(m + 9)
	}
	doy := (153*mp+2)/5 + int64(d) - 1     // [0, 365]
	doe := yoe*365 + yoe/4 - yoe/100 + doy // [0, 146096]
	return era*146097 + doe - 719468
}

// monthOfDay maps a day code (days since epoch) to a month code
// (year*12 + month-1). It is monotone because the civil calendar is.
func monthOfDay(day int64) int64 {
	y, m, _ := civilFromDays(day)
	return y*12 + int64(m-1)
}

// MonthCode builds a month code from a calendar year and month (1-12).
func MonthCode(year int64, month int) int64 { return year*12 + int64(month-1) }

// DayCode builds a day code from a calendar date.
func DayCode(year int64, month, day int) int64 { return daysFromCivil(year, month, day) }

// HourCode builds an hour code from a calendar date and hour (0-23).
func HourCode(year int64, month, day, hour int) int64 {
	return daysFromCivil(year, month, day)*hoursPerDay + int64(hour)
}

// SecondCode builds a UNIX-seconds code from calendar components.
func SecondCode(year int64, month, day, hour, min, sec int) int64 {
	return HourCode(year, month, day, hour)*secondsPerHour + int64(min*60+sec)
}

func formatSecond(c int64) string {
	day := floorDiv(c, secondsPerHour*hoursPerDay)
	rem := c - day*secondsPerHour*hoursPerDay
	y, m, d := civilFromDays(day)
	return fmt.Sprintf("%04d-%02d-%02d %02d:%02d:%02d", y, m, d, rem/3600, rem/60%60, rem%60)
}

func formatHour(c int64) string {
	day := floorDiv(c, hoursPerDay)
	h := c - day*hoursPerDay
	y, m, d := civilFromDays(day)
	return fmt.Sprintf("%04d-%02d-%02d %02dh", y, m, d, h)
}

func formatDay(c int64) string {
	y, m, d := civilFromDays(c)
	return fmt.Sprintf("%04d-%02d-%02d", y, m, d)
}

func formatMonth(c int64) string {
	return fmt.Sprintf("%04d-%02d", floorDiv(c, 12), c-floorDiv(c, 12)*12+1)
}
