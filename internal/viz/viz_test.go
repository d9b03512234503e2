package viz

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestBarChartValidate(t *testing.T) {
	ok := BarChart{Categories: []string{"a"}, Values: []float64{1}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []BarChart{
		{},
		{Categories: []string{"a"}, Values: []float64{1, 2}},
		{Categories: []string{"a"}, Values: []float64{math.NaN()}},
		{Categories: []string{"a"}, Values: []float64{math.Inf(1)}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad case %d should fail", i)
		}
	}
}

func TestBarChartASCII(t *testing.T) {
	c := BarChart{
		Title:      "Temperature",
		Unit:       "°F",
		Categories: []string{"Tim Hortons", "B&N Cafe", "Starbucks"},
		Values:     []float64{66, 71, 73},
	}
	out, err := c.ASCII(40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Temperature (°F)") {
		t.Fatalf("missing title: %q", out)
	}
	for _, name := range c.Categories {
		if !strings.Contains(out, name) {
			t.Fatalf("missing category %q", name)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	// The largest value gets the longest bar.
	bars := make(map[string]int)
	for _, l := range lines[1:] {
		bars[strings.Fields(l)[0]] = strings.Count(l, "█")
	}
	if bars["Starbucks"] <= bars["Tim"] {
		t.Fatalf("bar lengths wrong: %v", bars)
	}
	if _, err := (BarChart{}).ASCII(40); err == nil {
		t.Fatal("invalid chart must error")
	}
}

func TestBarChartASCIIZeroValues(t *testing.T) {
	c := BarChart{Categories: []string{"a", "b"}, Values: []float64{0, 0}}
	out, err := c.ASCII(5)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "█") {
		t.Fatal("zero values should draw no bars")
	}
}

func TestBarChartSVG(t *testing.T) {
	c := BarChart{
		Title:      "Humidity",
		Unit:       "%",
		Categories: []string{"Green Lake", "Long", "Cliff"},
		Values:     []float64{68, 55, 50},
	}
	svg, err := c.SVG(400, 300)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if strings.Count(svg, "<rect") < 4 { // background + 3 bars
		t.Fatalf("expected 4 rects: %s", svg)
	}
	if !strings.Contains(svg, "Humidity (%)") {
		t.Fatal("missing title")
	}
	if _, err := (BarChart{}).SVG(400, 300); err == nil {
		t.Fatal("invalid chart must error")
	}
}

func TestBarChartSVGEscapesXML(t *testing.T) {
	c := BarChart{
		Title:      `Noise <&">`,
		Categories: []string{"B&N Cafe"},
		Values:     []float64{0.08},
	}
	svg, err := c.SVG(200, 150)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, "B&N ") || strings.Contains(svg, `<&">`) {
		t.Fatal("XML not escaped")
	}
	if !strings.Contains(svg, "B&amp;N") {
		t.Fatal("escaped ampersand missing")
	}
}

func TestBarChartSVGNegativeValues(t *testing.T) {
	c := BarChart{
		Title:      "WiFi",
		Categories: []string{"TH", "BN", "SB"},
		Values:     []float64{-62, -50, -72},
	}
	svg, err := c.SVG(300, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "<rect") {
		t.Fatal("no bars drawn for negative values")
	}
}

func TestLineChartValidate(t *testing.T) {
	ok := LineChart{
		X:      []float64{1, 2, 3},
		Series: []Series{{Label: "greedy", Values: []float64{0.5, 0.7, 0.9}}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []LineChart{
		{},
		{X: []float64{1}},
		{X: []float64{1, 2}},
		{X: []float64{1, 2}, Series: []Series{{Label: "x", Values: []float64{1}}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad case %d should fail", i)
		}
	}
}

func TestLineChartSVG(t *testing.T) {
	c := LineChart{
		Title:  "Fig 14a",
		XLabel: "# of mobile users",
		YLabel: "coverage",
		X:      []float64{10, 20, 30, 40, 50},
		Series: []Series{
			{Label: "Greedy", Values: []float64{0.5, 0.7, 0.85, 0.93, 0.97}},
			{Label: "Baseline", Values: []float64{0.2, 0.35, 0.45, 0.52, 0.6}},
		},
	}
	svg, err := c.SVG(500, 300)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(svg, "<polyline") != 2 {
		t.Fatal("expected 2 polylines")
	}
	if !strings.Contains(svg, "Greedy") || !strings.Contains(svg, "Baseline") {
		t.Fatal("missing legend")
	}
	if !strings.Contains(svg, "# of mobile users") {
		t.Fatal("missing x label")
	}
	if _, err := (LineChart{}).SVG(500, 300); err == nil {
		t.Fatal("invalid chart must error")
	}
}

func TestLineChartFlatSeries(t *testing.T) {
	c := LineChart{
		X:      []float64{1, 2},
		Series: []Series{{Label: "flat", Values: []float64{5, 5}}},
	}
	if _, err := c.SVG(200, 100); err != nil {
		t.Fatal(err)
	}
}

// ASCII renders the chart with unicode block bars, one row per category.
func (c BarChart) ASCII(width int) (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	if width < 10 {
		width = 10
	}
	maxAbs := 0.0
	for _, v := range c.Values {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	labelW := 0
	for _, cat := range c.Categories {
		if len(cat) > labelW {
			labelW = len(cat)
		}
	}
	var sb strings.Builder
	if c.Title != "" {
		sb.WriteString(c.Title)
		if c.Unit != "" {
			sb.WriteString(" (" + c.Unit + ")")
		}
		sb.WriteByte('\n')
	}
	for i, cat := range c.Categories {
		v := c.Values[i]
		n := 0
		if maxAbs > 0 {
			n = int(math.Round(math.Abs(v) / maxAbs * float64(width)))
		}
		fmt.Fprintf(&sb, "%-*s │%s %.3g\n", labelW, cat, strings.Repeat("█", n), v)
	}
	return sb.String(), nil
}
