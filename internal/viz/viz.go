// Package viz is SOR's Visualization module (§II-B): it renders feature
// data as terminal bar charts and standalone SVG documents so users "can
// view them easily". Only the standard library is used.
package viz

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Series is one named data series (e.g. one feature across places).
type Series struct {
	Label  string
	Values []float64
}

// BarChart describes a grouped bar chart (one group per category entry).
type BarChart struct {
	Title      string
	Unit       string
	Categories []string // e.g. place names
	Values     []float64
}

// Validate checks shape.
func (c BarChart) Validate() error {
	if len(c.Categories) == 0 {
		return errors.New("viz: chart needs categories")
	}
	if len(c.Values) != len(c.Categories) {
		return fmt.Errorf("viz: %d values for %d categories", len(c.Values), len(c.Categories))
	}
	for _, v := range c.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return errors.New("viz: non-finite value")
		}
	}
	return nil
}

// SVG renders the chart as a standalone SVG document.
func (c BarChart) SVG(width, height int) (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	if width < 100 {
		width = 100
	}
	if height < 80 {
		height = 80
	}
	const margin = 40
	plotW := float64(width - 2*margin)
	plotH := float64(height - 2*margin)
	maxV := 0.0
	minV := 0.0
	for _, v := range c.Values {
		if v > maxV {
			maxV = v
		}
		if v < minV {
			minV = v
		}
	}
	span := maxV - minV
	if span == 0 {
		span = 1
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	if c.Title != "" {
		title := c.Title
		if c.Unit != "" {
			title += " (" + c.Unit + ")"
		}
		fmt.Fprintf(&sb, `<text x="%d" y="20" font-family="sans-serif" font-size="14">%s</text>`,
			margin, escapeXML(title))
	}
	n := len(c.Values)
	barSlot := plotW / float64(n)
	barW := barSlot * 0.6
	zeroY := float64(margin) + plotH*maxV/span
	for i, v := range c.Values {
		x := float64(margin) + float64(i)*barSlot + (barSlot-barW)/2
		h := math.Abs(v) / span * plotH
		y := zeroY - h
		if v < 0 {
			y = zeroY
		}
		fmt.Fprintf(&sb,
			`<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="#4477AA"/>`,
			x, y, barW, h)
		fmt.Fprintf(&sb,
			`<text x="%.1f" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`,
			x+barW/2, height-margin+15, escapeXML(c.Categories[i]))
		fmt.Fprintf(&sb,
			`<text x="%.1f" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="middle">%.3g</text>`,
			x+barW/2, y-4, v)
	}
	// Axis.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`,
		margin, zeroY, width-margin, zeroY)
	sb.WriteString("</svg>")
	return sb.String(), nil
}

// LineChart draws one or more series over a shared x-axis (used for the
// Fig. 14 coverage curves).
type LineChart struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Validate checks shape.
func (c LineChart) Validate() error {
	if len(c.X) < 2 {
		return errors.New("viz: line chart needs >= 2 x points")
	}
	if len(c.Series) == 0 {
		return errors.New("viz: line chart needs series")
	}
	for _, s := range c.Series {
		if len(s.Values) != len(c.X) {
			return fmt.Errorf("viz: series %q has %d values for %d x points",
				s.Label, len(s.Values), len(c.X))
		}
	}
	return nil
}

// seriesColors cycles for multiple lines.
var seriesColors = []string{"#4477AA", "#EE6677", "#228833", "#CCBB44"}

// SVG renders the line chart.
func (c LineChart) SVG(width, height int) (string, error) {
	if err := c.Validate(); err != nil {
		return "", err
	}
	if width < 120 {
		width = 120
	}
	if height < 100 {
		height = 100
	}
	const margin = 45
	plotW := float64(width - 2*margin)
	plotH := float64(height - 2*margin)
	minX, maxX := c.X[0], c.X[0]
	for _, x := range c.X {
		minX = math.Min(minX, x)
		maxX = math.Max(maxX, x)
	}
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, v := range s.Values {
			minY = math.Min(minY, v)
			maxY = math.Max(maxY, v)
		}
	}
	if maxX == minX {
		maxX++
	}
	if maxY == minY {
		maxY++
	}
	px := func(x float64) float64 { return float64(margin) + (x-minX)/(maxX-minX)*plotW }
	py := func(y float64) float64 { return float64(margin) + plotH - (y-minY)/(maxY-minY)*plotH }

	var sb strings.Builder
	fmt.Fprintf(&sb, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	sb.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	if c.Title != "" {
		fmt.Fprintf(&sb, `<text x="%d" y="20" font-family="sans-serif" font-size="14">%s</text>`,
			margin, escapeXML(c.Title))
	}
	// Axes.
	fmt.Fprintf(&sb, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`,
		margin, float64(margin)+plotH, width-margin, float64(margin)+plotH)
	fmt.Fprintf(&sb, `<line x1="%d" y1="%d" x2="%d" y2="%.1f" stroke="black"/>`,
		margin, margin, margin, float64(margin)+plotH)
	for si, s := range c.Series {
		color := seriesColors[si%len(seriesColors)]
		var pts []string
		for i, x := range c.X {
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(x), py(s.Values[i])))
		}
		fmt.Fprintf(&sb, `<polyline points="%s" fill="none" stroke="%s" stroke-width="2"/>`,
			strings.Join(pts, " "), color)
		fmt.Fprintf(&sb,
			`<text x="%d" y="%d" font-family="sans-serif" font-size="11" fill="%s">%s</text>`,
			width-margin-80, margin+15*(si+1), color, escapeXML(s.Label))
	}
	fmt.Fprintf(&sb, `<text x="%d" y="%d" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`,
		width/2, height-8, escapeXML(c.XLabel))
	sb.WriteString("</svg>")
	return sb.String(), nil
}

func escapeXML(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
