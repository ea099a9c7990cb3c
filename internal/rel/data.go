package rel

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/pipeline"
	"repro/internal/schema"
)

// EvalSQL runs the pipeline through the flattened logic tree and
// evaluates the query over the database. When simplify is true the
// ∄∄ → ∀∃ rewrite is applied first (the result must not change; the
// property tests rely on exactly that).
func EvalSQL(db *Database, src string, s *schema.Schema, simplify bool) (*Result, error) {
	var a pipeline.Artifacts
	if err := pipeline.Run(context.TODO(), &a, src, s, pipeline.Options{Simplify: simplify}, pipeline.Tree, nil); err != nil {
		return nil, err
	}
	return EvalLT(db, a.Tree)
}

// BeersDB returns a small beer-drinkers database over the Ullman schema.
// Both the drinker/person and beer/drink column pairs carry the same
// values so queries may use either spelling.
//
// Designed properties (exercised by tests):
//   - alice and bob like exactly {ipa, stout}, so neither has a unique
//     beer set;
//   - carol uniquely likes {lager};
//   - dave uniquely likes {ipa, lager, porter}.
func BeersDB() *Database {
	likes := NewRelation("Likes", "drinker", "person", "beer", "drink")
	addLike := func(d, b string) { likes.Add(S(d), S(d), S(b), S(b)) }
	addLike("alice", "ipa")
	addLike("alice", "stout")
	addLike("bob", "ipa")
	addLike("bob", "stout")
	addLike("carol", "lager")
	addLike("dave", "ipa")
	addLike("dave", "lager")
	addLike("dave", "porter")

	freq := NewRelation("Frequents", "drinker", "person", "bar")
	addFreq := func(d, b string) { freq.Add(S(d), S(d), S(b)) }
	addFreq("alice", "Owl")
	addFreq("bob", "Owl")
	addFreq("bob", "Tap")
	addFreq("carol", "Tap")
	addFreq("dave", "Keg")

	serves := NewRelation("Serves", "bar", "beer", "drink")
	addServe := func(b, beer string) { serves.Add(S(b), S(beer), S(beer)) }
	addServe("Owl", "ipa")
	addServe("Owl", "stout")
	addServe("Tap", "lager")
	addServe("Tap", "ipa")
	addServe("Keg", "ipa")
	addServe("Keg", "lager")
	addServe("Keg", "porter")

	return NewDatabase().Put(likes).Put(freq).Put(serves)
}

// SailorsDB returns a small sailors database (Fig. 22a).
//
// Designed properties: boats 101/103 are red; yves reserves only red
// boats; zora reserves all red boats; walt reserves no red boat; xena
// reserves a mix.
func SailorsDB() *Database {
	sailor := NewRelation("Sailor", "sid", "sname", "rating", "age")
	sailor.Add(N(1), S("walt"), N(7), N(30))
	sailor.Add(N(2), S("xena"), N(9), N(25))
	sailor.Add(N(3), S("yves"), N(3), N(45))
	sailor.Add(N(4), S("zora"), N(10), N(52))

	boat := NewRelation("Boat", "bid", "bname", "color")
	boat.Add(N(101), S("Nina"), S("red"))
	boat.Add(N(102), S("Pinta"), S("green"))
	boat.Add(N(103), S("Santa Maria"), S("red"))
	boat.Add(N(104), S("Clipper"), S("blue"))

	res := NewRelation("Reserves", "sid", "bid", "day")
	res.Add(N(1), N(102), S("Mon")) // walt: green only
	res.Add(N(2), N(101), S("Tue")) // xena: red + blue
	res.Add(N(2), N(104), S("Wed"))
	res.Add(N(3), N(101), S("Thu")) // yves: red only
	res.Add(N(4), N(101), S("Fri")) // zora: all red boats
	res.Add(N(4), N(103), S("Sat"))
	res.Add(N(4), N(102), S("Sun"))

	return NewDatabase().Put(sailor).Put(boat).Put(res)
}

// ChinookDB returns a compact sample of the Chinook media store with
// enough variety to exercise every study question: two artists, three
// albums, tracks across genres and media types, playlists, and customers
// with invoices.
func ChinookDB() *Database {
	artist := NewRelation("Artist", "ArtistId", "Name")
	artist.Add(N(1), S("AC/DC"))
	artist.Add(N(2), S("Carlos"))
	artist.Add(N(3), S("Aria"))

	album := NewRelation("Album", "AlbumId", "Title", "ArtistId")
	album.Add(N(10), S("High Voltage"), N(1))
	album.Add(N(11), S("Back in Black"), N(1))
	album.Add(N(12), S("Guitar Nights"), N(2))
	album.Add(N(13), S("Aria Alone"), N(3))

	genre := NewRelation("Genre", "GenreId", "Name")
	genre.Add(N(1), S("Rock"))
	genre.Add(N(2), S("Pop"))
	genre.Add(N(3), S("Jazz"))
	genre.Add(N(4), S("Classical"))

	media := NewRelation("MediaType", "MediaTypeId", "Name")
	media.Add(N(1), S("ACC audio file"))
	media.Add(N(2), S("MPEG audio file"))

	track := NewRelation("Track",
		"TrackId", "Name", "AlbumId", "MediaTypeId", "GenreId",
		"Composer", "Milliseconds", "Bytes", "UnitPrice")
	track.Add(N(100), S("T.N.T."), N(10), N(1), N(1), S("Angus"), N(210000), N(1000), N(0.99))
	track.Add(N(101), S("Rock Me"), N(10), N(2), N(1), S("AC/DC"), N(290000), N(1200), N(0.99))
	track.Add(N(102), S("Hells Bells"), N(11), N(1), N(1), S("Angus"), N(312000), N(1500), N(1.99))
	track.Add(N(103), S("Soft Song"), N(12), N(2), N(2), S("Carlos"), N(180000), N(900), N(0.99))
	track.Add(N(104), S("Jazz Walk"), N(12), N(1), N(3), S("Miles"), N(260000), N(1100), N(2.49))
	track.Add(N(105), S("Aria One"), N(13), N(2), N(4), S("Aria"), N(200000), N(800), N(0.99))

	playlist := NewRelation("Playlist", "PlaylistId", "Name")
	playlist.Add(N(1), S("workout"))
	playlist.Add(N(2), S("chill"))

	pt := NewRelation("PlaylistTrack", "PlaylistId", "TrackId")
	pt.Add(N(1), N(100))
	pt.Add(N(1), N(104))
	pt.Add(N(2), N(103))
	pt.Add(N(2), N(104))
	pt.Add(N(2), N(105))

	customer := NewRelation("Customer",
		"CustomerId", "FirstName", "LastName", "Company", "Address",
		"City", "State", "Country", "PostalCode", "Phone", "Fax",
		"Email", "SupportRepId")
	customer.Add(N(123), S("Ann"), S("Lee"), S(""), S(""), S("Detroit"), S("Michigan"),
		S("USA"), S(""), S(""), S(""), S("ann@x.io"), N(201))
	customer.Add(N(124), S("Ben"), S("Kim"), S(""), S(""), S("Paris"), S(""),
		S("France"), S(""), S(""), S(""), S("ben@x.io"), N(202))
	customer.Add(N(125), S("Cai"), S("Wu"), S(""), S(""), S("Detroit"), S("Michigan"),
		S("USA"), S(""), S(""), S(""), S("cai@x.io"), N(201))

	invoice := NewRelation("Invoice",
		"InvoiceId", "CustomerId", "InvoiceDate", "BillingAddress",
		"BillingCity", "BillingState", "BillingCountry", "BillingPostalCode", "Total")
	invoice.Add(N(900), N(123), S("2020-01-02"), S(""), S("Detroit"), S("Michigan"), S("USA"), S(""), N(3.97))
	invoice.Add(N(901), N(123), S("2020-02-05"), S(""), S("Chicago"), S("Illinois"), S("USA"), S(""), N(1.99))
	invoice.Add(N(902), N(124), S("2020-03-07"), S(""), S("Paris"), S(""), S("France"), S(""), N(2.49))
	invoice.Add(N(903), N(125), S("2020-04-01"), S(""), S("Detroit"), S("Michigan"), S("USA"), S(""), N(0.99))

	il := NewRelation("InvoiceLine", "InvoiceLineId", "InvoiceId", "TrackId", "UnitPrice", "Quantity")
	il.Add(N(1), N(900), N(100), N(0.99), N(2))
	il.Add(N(2), N(900), N(103), N(0.99), N(1))
	il.Add(N(3), N(901), N(102), N(1.99), N(1))
	il.Add(N(4), N(902), N(104), N(2.49), N(1))
	il.Add(N(5), N(903), N(100), N(0.99), N(1))

	employee := NewRelation("Employee",
		"EmployeeId", "LastName", "FirstName", "Title", "ReportsTo",
		"BirthDate", "HireDate", "Address", "City", "State", "Country",
		"PostalCode", "Phone", "Fax", "Email")
	employee.Add(N(201), S("Hill"), S("Dana"), S("Rep"), N(203), S(""), S(""), S(""),
		S("Detroit"), S("Michigan"), S("USA"), S(""), S(""), S(""), S("dana@x.io"))
	employee.Add(N(202), S("Roy"), S("Eli"), S("Rep"), N(203), S(""), S(""), S(""),
		S("Lyon"), S(""), S("France"), S(""), S(""), S(""), S("eli@x.io"))
	employee.Add(N(203), S("Boss"), S("Kay"), S("Manager"), N(203), S(""), S(""), S(""),
		S("Toronto"), S(""), S("Canada"), S(""), S(""), S(""), S("kay@x.io"))

	return NewDatabase().
		Put(artist).Put(album).Put(genre).Put(media).Put(track).
		Put(playlist).Put(pt).Put(customer).Put(invoice).Put(il).Put(employee)
}

// SyntheticSchema returns the schema of the synthetic relations produced
// by SyntheticDB: R and R0..R3, each with columns a..f and k0..k5.
func SyntheticSchema() *schema.Schema {
	cols := []string{"a", "b", "c", "d", "e", "f", "k0", "k1", "k2", "k3", "k4", "k5"}
	s := schema.New("synthetic")
	for _, name := range []string{"R", "R0", "R1", "R2", "R3"} {
		s.AddTable(name, cols...)
	}
	return s
}

// SyntheticDB builds a random database over the synthetic schema used by
// logictree.RandomValid and the Appendix-B path patterns: relations R and
// R0..R3, each with columns a..f and k0..k5 holding small integers so
// joins frequently match.
func SyntheticDB(rng *rand.Rand, rowsPerRelation int) *Database {
	cols := []string{"a", "b", "c", "d", "e", "f", "k0", "k1", "k2", "k3", "k4", "k5"}
	db := NewDatabase()
	for _, name := range []string{"R", "R0", "R1", "R2", "R3"} {
		r := NewRelation(name, cols...)
		for i := 0; i < rowsPerRelation; i++ {
			row := make(Tuple, len(cols))
			for j := range row {
				row[j] = N(float64(rng.Intn(4)))
			}
			r.Rows = append(r.Rows, row)
		}
		db.Put(r)
	}
	return db
}

// RandomSchemaDB builds a random database for one of the built-in paper
// schemas, with values drawn from small domains so that subset/superset
// relationships between entities actually occur.
func RandomSchemaDB(rng *rand.Rand, s *schema.Schema, rowsPerTable int) *Database {
	db := NewDatabase()
	for _, t := range s.Tables() {
		r := NewRelation(t.Name, t.Columns...)
		for i := 0; i < rowsPerTable; i++ {
			row := make(Tuple, len(t.Columns))
			for j := range row {
				row[j] = S(fmt.Sprintf("v%d", rng.Intn(4)))
			}
			r.Rows = append(r.Rows, row)
		}
		db.Put(r)
	}
	return db
}
