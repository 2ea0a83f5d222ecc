package repro.graph

import repro.SparkSpec

class GraphGenSpec extends SparkSpec {

  test("ba attaches every new vertex to mPer targets") {
    val g = GraphGen.ba(200, 3, 5)
    assert(g.n == 200)
    // seed clique of 4 vertices (6 edges) + 196 * 3 attachments, minus any
    // rare collisions through deduplication
    assert(g.m <= 6 + 196 * 3)
    assert(g.m >= 6 + 196 * 3 - 20)
    (4 until 200).foreach(v => assert(g.degree(v) >= 3))
  }

  test("ba exhibits skew (hubs exist)") {
    val g = GraphGen.ba(500, 2, 6)
    val degs = (0 until g.n).map(g.degree)
    assert(degs.max > 4 * (2 * g.m / g.n))
  }

  test("generate is deterministic") {
    val cfg = GraphGen.paperSuite.head
    val a = GraphGen.generate(cfg)
    val b = GraphGen.generate(cfg)
    assert(a.m == b.m && a.edgePairs.toSeq == b.edgePairs.toSeq)
  }

  test("planted cliques appear in the generated graph") {
    val cfg = GraphGen.DatasetConfig("T", "t", 500, 1, 5, 10, 10, 0, 9)
    val g = GraphGen.generate(cfg)
    // A 10-clique forces degeneracy >= 9.
    assert(Degeneracy.compute(g).delta >= 9)
  }

  test("overlap window keeps clique vertices close") {
    val cfg = GraphGen.DatasetConfig("T", "t", 5000, 0, 20, 6, 8, 50, 10)
    // baDeg=0 is not allowed by ba(); generate handles it by skipping backbone
    val g = GraphGen.generate(cfg)
    g.edgePairs.foreach { case (u, v) => assert(math.abs(u - v) < 64) }
  }

  test("paper suite has the 16 expected dataset codes") {
    assert(GraphGen.paperSuite.map(_.name) ==
      Seq("NA", "FB", "WE", "WK", "SH", "ST", "DB", "DE", "DG", "YO", "PO", "SK", "CN", "BA", "OR", "SO"))
    assert(GraphGen.byName("OR").fullName == "orkut")
    intercept[RuntimeException](GraphGen.byName("XX"))
  }

  test("byName resolves XL outside the suite and names the registry for an unknown name") {
    assert(GraphGen.byName("XL") == GraphGen.xl)
    assert(!GraphGen.paperSuite.contains(GraphGen.xl))
    val e = intercept[IllegalArgumentException](GraphGen.byName("XX"))
    assert(e.getMessage.endsWith("known: " + (GraphGen.paperSuite :+ GraphGen.xl).map(_.name).mkString(", ")))
  }

  test("randomGnp respects n") {
    val g = GraphGen.randomGnp(12, 0.5, 11)
    assert(g.n == 12)
    assert(g.m <= 66)
  }

  test("generated graphs are pinned: n, m and a digest of each endpoint array") {
    // The benchmark's `hubs` input at its base seed, copied here so that a
    // change to the generator shows in tier-1 rather than in the benchmark.
    val hubs = GraphGen.DatasetConfig("HB", "hubs", 20000, 4, 300, 4, 12, 0, 201, 6, 40, 60, 0.6,
      nHubs = 12, hubDeg = 5000)
    val got = (GraphGen.paperSuite :+ GraphGen.xl :+ hubs).map { c =>
      val g = GraphGen.generate(c)
      c.name -> ((g.n, g.m, java.util.Arrays.hashCode(g.eu), java.util.Arrays.hashCode(g.ev)))
    }
    val expected = Seq(
      "NA" -> ((3500, 38125, 1120544548, 2040579826)),
      "FB" -> ((4000, 36623, -418717244, -2074899544)),
      "WE" -> ((8000, 14929, 692921672, 2119565019)),
      "WK" -> ((6000, 45594, 751228898, -1615816830)),
      "SH" -> ((5000, 37997, -2059656133, -197032253)),
      "ST" -> ((6500, 63053, -1386897915, -1207433165)),
      "DB" -> ((8000, 100117, -1868405836, 1026376918)),
      "DE" -> ((3200, 64917, -843791466, -1994440331)),
      "DG" -> ((6000, 109770, 2118499574, -1911352325)),
      "YO" -> ((9000, 24095, -1020669883, 938463787)),
      "PO" -> ((7000, 74724, 447850829, 354197669)),
      "SK" -> ((7500, 69130, -2004995604, -653149580)),
      "CN" -> ((8500, 57289, -269192025, 288345825)),
      "BA" -> ((9000, 64370, -1704127249, 187659487)),
      "OR" -> ((5500, 158507, -1734223820, 1513624881)),
      "SO" -> ((9000, 68092, -1368457593, 2060190952)),
      "XL" -> ((12000, 224769, -1019453343, 57286314)),
      "HB" -> ((20000, 153181, 481062720, -1716357563)))
    assert(got == expected)
  }
}
