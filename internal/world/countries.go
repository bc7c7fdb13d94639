// Package world generates the synthetic Internet the study measures: a
// population of /24 blocks distributed over countries with realistic
// covariates (per-capita GDP, electricity consumption, Internet users per
// host, geography, /8 allocation dates, access-link technology mixes, ASes
// and organizations), wired to netsim behaviour models so that the paper's
// causal story — poorer and later-allocated networks are more diurnal, with
// on-hours following local time — is actually present in the data for the
// measurement pipeline to rediscover.
//
// Country-level diurnal fractions and block weights are seeded from the
// paper's Tables 3 and 4 where the paper reports them, and from a
// GDP-driven model elsewhere; see DESIGN.md for the substitution argument.
package world

// Region names follow the paper's Table 4 (UN M49-style groupings).
const (
	RegionNorthernAmerica = "Northern America"
	RegionSouthernAfrica  = "Southern Africa"
	RegionWesternEurope   = "W. Europe"
	RegionNorthernEurope  = "Northern Europe"
	RegionCaribbean       = "Caribbean"
	RegionOceania         = "Oceania"
	RegionWesternAsia     = "W. Asia"
	RegionNorthernAfrica  = "Northern Africa"
	RegionSouthernEurope  = "Southern Europe"
	RegionCentralAmerica  = "Central America"
	RegionEasternEurope   = "Eastern Europe"
	RegionSouthernAsia    = "Southern Asia"
	RegionSouthAmerica    = "South America"
	RegionSouthEastAsia   = "South-Eastern Asia"
	RegionEasternAsia     = "Eastern Asia"
	RegionCentralAsia     = "Central Asia"
)

// Country is one national population of blocks with its covariates.
type Country struct {
	Code   string // ISO 3166-1 alpha-2
	Name   string
	Region string
	// GDP is per-capita GDP (PPP, USD) — the paper's Table 3 covariate.
	GDP float64
	// ElecPerCapita is electricity consumption per capita (kWh/year).
	ElecPerCapita float64
	// UsersPerHost is Internet users per host, a Table 5 covariate.
	UsersPerHost float64
	// Geographic bounding box for block placement (degrees).
	LonMin, LonMax float64
	LatMin, LatMax float64
	// BlockWeight is the country's share of /24 blocks, proportional to the
	// paper's observed counts (Table 3 / Table 4 populations).
	BlockWeight float64
	// DiurnalFrac is the target fraction of diurnal blocks (paper's Table 3
	// where reported; GDP model elsewhere).
	DiurnalFrac float64
	// FirstAllocYear approximates when the country's first /8 space was
	// allocated — early adopters get early space (drives Fig 15).
	FirstAllocYear int
}

// Countries is the synthetic world's national table. Block weights are the
// approximate /24 counts from the paper (in thousands); diurnal fractions
// for the countries in Table 3 are the paper's measured values.
var Countries = []Country{
	// Northern America (721,716 blocks; frac 0.002)
	{"US", "United States", RegionNorthernAmerica, 50700, 12950, 2.1, -124, -67, 26, 48, 672.1, 0.002, 1985},
	{"CA", "Canada", RegionNorthernAmerica, 41500, 15500, 2.3, -130, -55, 43, 57, 49.6, 0.003, 1988},

	// Western Europe (275,224; 0.0109)
	{"DE", "Germany", RegionWesternEurope, 39100, 7000, 2.6, 6, 15, 47, 55, 100.0, 0.011, 1989},
	{"FR", "France", RegionWesternEurope, 35500, 7300, 2.8, -4, 8, 42, 51, 80.0, 0.011, 1990},
	{"NL", "Netherlands", RegionWesternEurope, 42300, 6700, 2.2, 3.4, 7.2, 50.7, 53.5, 40.0, 0.009, 1989},
	{"CH", "Switzerland", RegionWesternEurope, 54600, 7500, 2.1, 6, 10.5, 45.8, 47.8, 25.0, 0.008, 1990},
	{"BE", "Belgium", RegionWesternEurope, 37800, 7700, 2.5, 2.5, 6.4, 49.5, 51.5, 20.0, 0.010, 1990},
	{"AT", "Austria", RegionWesternEurope, 42500, 8000, 2.4, 9.5, 17, 46.4, 49, 10.2, 0.010, 1991},

	// Northern Europe (133,911; 0.0131)
	{"GB", "United Kingdom", RegionNorthernEurope, 36700, 5400, 2.4, -8, 2, 50, 58, 80.0, 0.012, 1988},
	{"SE", "Sweden", RegionNorthernEurope, 41700, 13500, 2.0, 11, 24, 55, 68, 25.0, 0.012, 1990},
	{"FI", "Finland", RegionNorthernEurope, 36500, 15000, 2.1, 20, 31, 60, 69, 15.0, 0.013, 1991},
	{"NO", "Norway", RegionNorthernEurope, 55400, 23000, 2.0, 4, 30, 58, 70, 10.0, 0.012, 1991},
	{"DK", "Denmark", RegionNorthernEurope, 37700, 6000, 2.2, 8, 13, 54.5, 57.8, 3.9, 0.013, 1991},

	// Southern Europe (134,933; 0.124)
	{"IT", "Italy", RegionSouthernEurope, 29600, 5200, 3.5, 7, 18, 37, 46, 60.0, 0.10, 1992},
	{"ES", "Spain", RegionSouthernEurope, 30400, 5600, 3.3, -9, 3, 36, 43, 40.0, 0.13, 1992},
	{"GR", "Greece", RegionSouthernEurope, 24900, 5100, 3.8, 20, 27, 35, 41.5, 15.0, 0.15, 1994},
	{"PT", "Portugal", RegionSouthernEurope, 23000, 4700, 3.6, -9.5, -6.2, 37, 42, 10.0, 0.12, 1993},
	{"HR", "Croatia", RegionSouthernEurope, 17800, 3700, 3.9, 13.5, 19.4, 42.4, 46.5, 5.5, 0.14, 1995},
	{"RS", "Serbia", RegionSouthernEurope, 10600, 4300, 4.5, 19, 23, 42.2, 46.2, 4.4, 0.393, 1997},

	// Eastern Europe (146,552; 0.135)
	{"RU", "Russia", RegionEasternEurope, 18000, 6500, 4.0, 30, 135, 50, 60, 53.0, 0.159, 1993},
	{"PL", "Poland", RegionEasternEurope, 20600, 3900, 3.8, 14, 24, 49, 55, 40.0, 0.12, 1993},
	{"CZ", "Czechia", RegionEasternEurope, 27100, 6200, 3.2, 12, 19, 48.5, 51.1, 20.0, 0.11, 1993},
	{"UA", "Ukraine", RegionEasternEurope, 7500, 3500, 5.0, 22, 40, 44, 52, 16.6, 0.289, 1996},
	{"RO", "Romania", RegionEasternEurope, 12800, 2600, 4.2, 20, 30, 43.6, 48.3, 15.0, 0.16, 1996},
	{"BY", "Belarus", RegionEasternEurope, 15900, 3600, 4.6, 23, 33, 51, 56, 1.7, 0.512, 1998},

	// Eastern Asia (757,352; 0.279)
	{"CN", "China", RegionEasternAsia, 9300, 3500, 6.0, 75, 130, 20, 47, 394.2, 0.498, 1996},
	{"JP", "Japan", RegionEasternAsia, 36200, 7800, 2.4, 129, 146, 31, 45, 200.0, 0.004, 1988},
	{"KR", "South Korea", RegionEasternAsia, 32400, 10200, 2.6, 126, 130, 34, 38.6, 100.0, 0.02, 1992},
	{"TW", "Taiwan", RegionEasternAsia, 38500, 10400, 2.8, 120, 122, 22, 25.3, 50.0, 0.05, 1993},
	{"HK", "Hong Kong", RegionEasternAsia, 50700, 6000, 2.2, 113.8, 114.4, 22.2, 22.6, 13.0, 0.01, 1991},

	// South-Eastern Asia (48,885; 0.219)
	{"TH", "Thailand", RegionSouthEastAsia, 10300, 2300, 5.5, 98, 105.6, 6, 20, 11.0, 0.336, 1998},
	{"MY", "Malaysia", RegionSouthEastAsia, 17200, 4200, 4.3, 100, 119, 1, 7, 9.7, 0.247, 1996},
	{"VN", "Vietnam", RegionSouthEastAsia, 3600, 1100, 7.5, 102, 110, 9, 23, 8.2, 0.183, 2000},
	{"ID", "Indonesia", RegionSouthEastAsia, 5100, 680, 8.0, 95, 141, -10, 6, 7.6, 0.166, 1999},
	{"PH", "Philippines", RegionSouthEastAsia, 4500, 640, 8.5, 117, 127, 5, 19, 5.7, 0.239, 1999},
	{"SG", "Singapore", RegionSouthEastAsia, 60900, 8400, 2.1, 103.6, 104.1, 1.2, 1.5, 6.7, 0.02, 1992},

	// Southern Asia (44,524; 0.200)
	{"IN", "India", RegionSouthernAsia, 3900, 700, 9.0, 68, 90, 8, 33, 36.5, 0.225, 1997},
	{"PK", "Pakistan", RegionSouthernAsia, 2900, 450, 10.0, 61, 75, 24, 36, 5.0, 0.20, 2001},
	{"BD", "Bangladesh", RegionSouthernAsia, 2000, 280, 12.0, 88, 92.7, 20.7, 26.6, 2.0, 0.22, 2003},
	{"LK", "Sri Lanka", RegionSouthernAsia, 6100, 490, 7.0, 79.6, 81.9, 5.9, 9.8, 1.0, 0.18, 2002},

	// Western Asia (25,570; 0.0765)
	{"TR", "Turkey", RegionWesternAsia, 15200, 2700, 4.1, 26, 45, 36, 42, 15.0, 0.06, 1995},
	{"IL", "Israel", RegionWesternAsia, 32800, 6600, 2.5, 34.3, 35.7, 29.5, 33.3, 8.0, 0.02, 1992},
	{"GE", "Georgia", RegionWesternAsia, 6000, 2300, 6.5, 40, 46.7, 41.1, 43.6, 1.4, 0.546, 2002},
	{"AM", "Armenia", RegionWesternAsia, 5900, 1700, 6.8, 43.4, 46.6, 38.8, 41.3, 1.1, 0.630, 2003},

	// Central Asia (3,832; 0.401)
	{"KZ", "Kazakhstan", RegionCentralAsia, 14100, 4900, 5.2, 47, 87, 41, 55, 3.8, 0.400, 2000},

	// Northern Africa (9,984; 0.0992)
	{"EG", "Egypt", RegionNorthernAfrica, 6600, 1700, 7.2, 25, 35, 22, 31.5, 6.0, 0.09, 1998},
	{"MA", "Morocco", RegionNorthernAfrica, 5400, 830, 7.8, -13, -1, 28, 35.9, 2.1, 0.185, 1999},
	{"TN", "Tunisia", RegionNorthernAfrica, 9700, 1400, 6.1, 7.5, 11.6, 30.2, 37.5, 1.8, 0.10, 1999},

	// Southern Africa (11,255; 0.0108)
	{"ZA", "South Africa", RegionSouthernAfrica, 11600, 4500, 4.9, 16.5, 32.9, -34.8, -22.1, 11.3, 0.011, 1993},

	// Caribbean (2,174; 0.016)
	{"DO", "Dominican Republic", RegionCaribbean, 9800, 1400, 6.3, -72, -68.3, 17.5, 19.9, 2.2, 0.016, 2001},

	// Central America (44,644; 0.133)
	{"MX", "Mexico", RegionCentralAmerica, 15600, 2100, 4.4, -117, -87, 15, 32, 40.0, 0.12, 1993},
	{"CR", "Costa Rica", RegionCentralAmerica, 12800, 1900, 4.8, -85.9, -82.6, 8, 11.2, 3.5, 0.14, 1999},
	{"SV", "El Salvador", RegionCentralAmerica, 7600, 940, 6.6, -90.1, -87.7, 13.2, 14.5, 1.1, 0.311, 2002},

	// South America (133,493; 0.208)
	{"BR", "Brazil", RegionSouthAmerica, 12100, 2500, 4.7, -74, -35, -33, 2, 79.1, 0.185, 1994},
	{"AR", "Argentina", RegionSouthAmerica, 18400, 3000, 4.2, -73, -54, -52, -22, 20.4, 0.339, 1995},
	{"CL", "Chile", RegionSouthAmerica, 18700, 3600, 4.0, -75.6, -67, -53, -17.5, 12.0, 0.10, 1995},
	{"CO", "Colombia", RegionSouthAmerica, 11000, 1200, 5.3, -79, -67, -4, 12, 9.4, 0.261, 1998},
	{"VE", "Venezuela", RegionSouthAmerica, 13600, 3300, 5.0, -73, -60, 1, 12, 8.0, 0.15, 1997},
	{"PE", "Peru", RegionSouthAmerica, 10900, 1200, 5.8, -81, -69, -18, 0, 4.6, 0.401, 1999},

	// Oceania (27,206; 0.0349)
	{"AU", "Australia", RegionOceania, 42400, 10700, 2.3, 114, 153, -39, -16, 22.0, 0.035, 1989},
	{"NZ", "New Zealand", RegionOceania, 29800, 9600, 2.5, 167, 178.5, -47, -34.4, 5.2, 0.034, 1992},
	{"FJ", "Fiji", RegionOceania, 4900, 920, 7.4, 177, 180, -19.2, -16, 0.3, 0.15, 2003},

	// Smaller economies filling out the sixteen regions.
	{"IE", "Ireland", RegionNorthernEurope, 41600, 5700, 2.2, -10, -6, 51.5, 55.4, 8.0, 0.012, 1991},
	{"IS", "Iceland", RegionNorthernEurope, 39400, 51500, 2.0, -24, -13.5, 63.4, 66.5, 1.2, 0.011, 1993},
	{"LT", "Lithuania", RegionNorthernEurope, 20100, 3300, 3.4, 21, 26.8, 53.9, 56.4, 3.0, 0.09, 1996},
	{"LV", "Latvia", RegionNorthernEurope, 18100, 3100, 3.5, 21, 28.2, 55.7, 58.1, 2.5, 0.10, 1996},
	{"EE", "Estonia", RegionNorthernEurope, 21200, 6200, 2.8, 23.3, 28.2, 57.5, 59.7, 2.8, 0.07, 1995},
	{"LU", "Luxembourg", RegionWesternEurope, 80700, 13900, 2.0, 5.7, 6.5, 49.4, 50.2, 1.5, 0.007, 1992},
	{"HU", "Hungary", RegionEasternEurope, 19800, 3700, 3.6, 16.1, 22.9, 45.7, 48.6, 10.0, 0.13, 1994},
	{"SK", "Slovakia", RegionEasternEurope, 24300, 4700, 3.3, 16.8, 22.6, 47.7, 49.6, 6.0, 0.11, 1995},
	{"BG", "Bulgaria", RegionEasternEurope, 14200, 4500, 4.3, 22.4, 28.6, 41.2, 44.2, 7.0, 0.17, 1996},
	{"MD", "Moldova", RegionEasternEurope, 3800, 1400, 8.2, 26.6, 30.2, 45.5, 48.5, 1.0, 0.35, 2001},
	{"SI", "Slovenia", RegionSouthernEurope, 28600, 6500, 3.0, 13.4, 16.6, 45.4, 46.9, 3.0, 0.09, 1994},
	{"BA", "Bosnia and Herzegovina", RegionSouthernEurope, 8300, 3100, 5.6, 15.7, 19.6, 42.6, 45.3, 1.5, 0.25, 2000},
	{"MK", "North Macedonia", RegionSouthernEurope, 10700, 3500, 5.0, 20.5, 23, 40.9, 42.4, 1.0, 0.22, 2000},
	{"AL", "Albania", RegionSouthernEurope, 8000, 2100, 6.2, 19.3, 21, 39.6, 42.7, 0.8, 0.24, 2001},
	{"MT", "Malta", RegionSouthernEurope, 27500, 4800, 2.9, 14.2, 14.6, 35.8, 36.1, 0.5, 0.08, 1996},
	{"CY", "Cyprus", RegionWesternAsia, 26900, 4000, 3.0, 32.3, 34.6, 34.6, 35.7, 0.8, 0.07, 1995},
	{"SA", "Saudi Arabia", RegionWesternAsia, 31300, 8700, 3.8, 36.5, 55, 17.5, 31, 6.0, 0.08, 1995},
	{"AE", "United Arab Emirates", RegionWesternAsia, 49000, 11000, 2.5, 51.5, 56.4, 22.7, 26.1, 4.0, 0.04, 1994},
	{"JO", "Jordan", RegionWesternAsia, 6100, 2100, 6.8, 35, 39.3, 29.2, 33.4, 1.2, 0.28, 2001},
	{"LB", "Lebanon", RegionWesternAsia, 15900, 3300, 4.4, 35.1, 36.6, 33, 34.7, 1.0, 0.14, 1999},
	{"AZ", "Azerbaijan", RegionWesternAsia, 10700, 2100, 5.4, 44.8, 50.4, 38.4, 41.9, 1.0, 0.33, 2002},
	{"UZ", "Uzbekistan", RegionCentralAsia, 3600, 1600, 9.5, 56, 73.2, 37.2, 45.6, 0.8, 0.42, 2003},
	{"KG", "Kyrgyzstan", RegionCentralAsia, 2400, 1500, 10.5, 69.3, 80.3, 39.2, 43.3, 0.4, 0.45, 2004},
	{"DZ", "Algeria", RegionNorthernAfrica, 7500, 1400, 7.1, -8.7, 12, 19, 37, 1.5, 0.14, 2000},
	{"JM", "Jamaica", RegionCaribbean, 9000, 1500, 6.4, -78.4, -76.2, 17.7, 18.5, 0.8, 0.12, 2001},
	{"TT", "Trinidad and Tobago", RegionCaribbean, 20400, 6100, 3.7, -61.9, -60.5, 10, 10.9, 0.7, 0.06, 1998},
	{"GT", "Guatemala", RegionCentralAmerica, 5200, 600, 7.9, -92.2, -88.2, 13.7, 17.8, 1.5, 0.20, 2001},
	{"PA", "Panama", RegionCentralAmerica, 15600, 2100, 4.5, -83, -77.2, 7.2, 9.7, 1.5, 0.12, 1999},
	{"HN", "Honduras", RegionCentralAmerica, 4600, 710, 8.3, -89.4, -83.1, 13, 16, 0.8, 0.25, 2002},
	{"EC", "Ecuador", RegionSouthAmerica, 10600, 1300, 5.7, -81, -75.2, -5, 1.5, 3.0, 0.22, 1999},
	{"BO", "Bolivia", RegionSouthAmerica, 5000, 750, 8.1, -69.6, -57.5, -22.9, -9.7, 1.2, 0.30, 2001},
	{"UY", "Uruguay", RegionSouthAmerica, 16700, 2900, 4.1, -58.4, -53.1, -35, -30.1, 2.5, 0.11, 1997},
	{"PY", "Paraguay", RegionSouthAmerica, 6800, 1500, 6.9, -62.6, -54.3, -27.6, -19.3, 1.0, 0.24, 2001},
	{"NP", "Nepal", RegionSouthernAsia, 1500, 140, 13.0, 80, 88.2, 26.3, 30.4, 0.6, 0.28, 2004},
	{"MM", "Myanmar", RegionSouthEastAsia, 1700, 180, 12.5, 92.2, 101.2, 9.8, 28.5, 0.4, 0.30, 2005},
	{"KH", "Cambodia", RegionSouthEastAsia, 2600, 270, 11.0, 102.3, 107.6, 10.4, 14.7, 0.5, 0.28, 2004},
	{"MN", "Mongolia", RegionEasternAsia, 5400, 1700, 6.7, 87.8, 119.9, 41.6, 52.1, 0.5, 0.35, 2002},
}

// CountryByCode returns the country with the given ISO code, or nil.
func CountryByCode(code string) *Country {
	for i := range Countries {
		if Countries[i].Code == code {
			return &Countries[i]
		}
	}
	return nil
}

// Regions returns the distinct region names in table order.
func Regions() []string {
	seen := make(map[string]bool)
	var out []string
	for i := range Countries {
		r := Countries[i].Region
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// TotalWeight sums the block weights of all countries.
func TotalWeight() float64 {
	var w float64
	for i := range Countries {
		w += Countries[i].BlockWeight
	}
	return w
}

// CenterLon returns the longitude of the country's bounding-box center —
// where a MaxMind-style database places blocks it can only locate to the
// country (the Fig 12 anomaly).
func (c *Country) CenterLon() float64 { return (c.LonMin + c.LonMax) / 2 }

// CenterLat returns the latitude of the bounding-box center.
func (c *Country) CenterLat() float64 { return (c.LatMin + c.LatMax) / 2 }
