"""BSBM-like e-commerce workload (paper §4.1, first experiment).

The paper evaluates "the 10 parts of BSBM query 5" on an RDF graph from
the Berlin SPARQL Benchmark converted to a property graph.  The original
data and toolchain are proprietary-scale (8M products / 250M vertices /
1B edges); per the substitution rule we generate a scaled-down synthetic
property graph with the same schema shape:

* ``product`` vertices with numeric properties ``num1`` / ``num2`` and a
  ``title`` string, linked ``-[:producer]->`` to producers and
  ``-[:feature]->`` to shared product features;
* ``offer`` vertices ``-[:offerProduct]->`` products and
  ``-[:vendor]->`` vendors;
* ``review`` vertices ``-[:reviewFor]->`` products and
  ``-[:reviewer]->`` persons, with ``rating`` properties.

BSBM query 5 is the *product similarity* query: given an origin product,
find other products sharing a feature whose numeric properties fall in a
band around the origin's.  The benchmark mix instantiates it with many
different origin products; the "10 parts" are 10 such instantiations.
Origins are chosen with a spread of feature fan-outs so that, exactly as
in the paper's Figure 5, some parts are heavy and parallel while others
are tiny and dominated by distributed overhead.
"""

import random

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder

#: BSBM query 5's similarity bands (verbatim from the benchmark spec).
NUM1_BAND = 120
NUM2_BAND = 170


class BsbmGraph:
    """The generated graph plus the id ranges of each entity class."""

    def __init__(self, graph, product_ids, feature_ids, producer_ids,
                 vendor_ids, offer_ids, review_ids, person_ids):
        self.graph = graph
        self.product_ids = product_ids
        self.feature_ids = feature_ids
        self.producer_ids = producer_ids
        self.vendor_ids = vendor_ids
        self.offer_ids = offer_ids
        self.review_ids = review_ids
        self.person_ids = person_ids


def generate_bsbm(num_products=200, seed=0, num_features=None):
    """Generate a BSBM-shaped property graph.

    Entity counts scale off *num_products* with ratios inspired by the
    BSBM data generator: ~20 products per producer, 2-5 features per
    product drawn from a pool of ~num_products/20 features (with skewed
    popularity, so a few features are shared by many products — these
    make the heavy query-5 parts), 4 offers per product spread over
    ~num_products/20 vendors, and 2 reviews per product from
    ~num_products/2 reviewers.
    """
    if num_products < 1 or (num_features is not None and num_features < 1):
        raise GraphError(
            "BSBM graph needs at least one product and, when given, one "
            "feature (got products=%d, features=%s)"
            % (num_products, num_features)
        )
    rng = random.Random(seed)
    builder = GraphBuilder()

    if num_features is None:
        num_features = max(4, num_products // 20)
    num_producers = max(2, num_products // 20)
    num_vendors = max(2, num_products // 20)
    num_persons = max(4, num_products // 2)
    offers_per_product = 4
    reviews_per_product = 2

    # A small dedicated pool of "niche" features shared only among a few
    # niche products.  Query-5 parts originating at niche products are
    # the paper's tiny, non-scaling parts (P8/P9 in Figure 5): almost no
    # similar products exist, so distributed overhead dominates.
    num_niche_products = max(1, num_products // 100)
    num_niche_features = max(2, num_niche_products // 4)

    feature_ids = [
        builder.add_vertex(label="feature", name="feature%d" % index)
        for index in range(num_features + num_niche_features)
    ]
    main_features = feature_ids[:num_features]
    niche_features = feature_ids[num_features:]
    producer_ids = [
        builder.add_vertex(
            label="producer",
            name="producer%d" % index,
            country="country%d" % rng.randrange(10),
        )
        for index in range(num_producers)
    ]
    vendor_ids = [
        builder.add_vertex(
            label="vendor",
            name="vendor%d" % index,
            country="country%d" % rng.randrange(10),
        )
        for index in range(num_vendors)
    ]
    person_ids = [
        builder.add_vertex(
            label="person",
            name="person%d" % index,
            country="country%d" % rng.randrange(10),
        )
        for index in range(num_persons)
    ]

    product_ids = []
    for index in range(num_products):
        product = builder.add_vertex(
            label="product",
            title="product%d" % index,
            num1=rng.randrange(2000),
            num2=rng.randrange(2000),
            num3=rng.randrange(2000),
        )
        product_ids.append(product)
        builder.add_edge(product, rng.choice(producer_ids), label="producer")
        # Skewed feature popularity: quadratic bias toward low indexes
        # gives a few very common features (heavy query-5 origins) and a
        # long tail of rare ones (fast origins).  The first few products
        # are niche: they only share the tiny niche feature pool.
        feature_count = 2 + rng.randrange(4)
        if index < num_niche_products:
            pool = niche_features
            choices = [rng.choice(pool) for _ in range(feature_count)]
        else:
            choices = [
                main_features[
                    int(num_features * rng.random() ** 2) % num_features
                ]
                for _ in range(feature_count)
            ]
        for feature in choices:
            builder.add_edge(product, feature, label="feature")

    offer_ids = []
    for product in product_ids:
        for _ in range(offers_per_product):
            offer = builder.add_vertex(
                label="offer",
                price=round(rng.uniform(5.0, 5000.0), 2),
                stock=rng.randrange(200),
            )
            offer_ids.append(offer)
            builder.add_edge(offer, product, label="offerProduct")
            builder.add_edge(offer, rng.choice(vendor_ids), label="vendor")

    review_ids = []
    for product in product_ids:
        for _ in range(reviews_per_product):
            review = builder.add_vertex(
                label="review",
                rating=1 + rng.randrange(10),
            )
            review_ids.append(review)
            builder.add_edge(review, product, label="reviewFor")
            builder.add_edge(review, rng.choice(person_ids), label="reviewer")

    return BsbmGraph(
        builder.build(),
        product_ids,
        feature_ids,
        producer_ids,
        vendor_ids,
        offer_ids,
        review_ids,
        person_ids,
    )


def query5(origin_product_id):
    """BSBM query 5 ("similar products") for one origin, in PGQL."""
    return (
        "SELECT DISTINCT p2, p2.title WHERE "
        "(p WITH id() = %d) -[:feature]-> (f) <-[:feature]- (p2), "
        "p2 != p, "
        "p2.num1 < p.num1 + %d, p2.num1 > p.num1 - %d, "
        "p2.num2 < p.num2 + %d, p2.num2 > p.num2 - %d"
        % (origin_product_id, NUM1_BAND, NUM1_BAND, NUM2_BAND, NUM2_BAND)
    )


def query5_parts(bsbm, num_parts=10, seed=0):
    """The 10 parts of BSBM query 5: 10 origin products, spread by load.

    Origins are picked across the product feature-degree distribution —
    from products whose features are shared by many others (heavy parts)
    to products with rare features (fast parts) — matching the per-part
    behaviour spread visible in the paper's Figure 5.
    """
    graph = bsbm.graph
    feature_label = graph.labels.lookup("feature")

    def similarity_fanout(product):
        fanout = 0
        targets, edge_ids = graph.out_edges(product)
        for target, eid in zip(targets, edge_ids):
            if graph.edge_label(int(eid)) == feature_label:
                fanout += graph.in_degree(int(target))
        return fanout

    ranked = sorted(bsbm.product_ids, key=similarity_fanout)
    rng = random.Random(seed)
    picks = []
    stride = max(1, len(ranked) // num_parts)
    for part in range(num_parts):
        if part == 0:
            picks.append(ranked[0])            # the tiniest part
        elif part == num_parts - 1:
            picks.append(ranked[-1])           # the heaviest part
        else:
            bucket = ranked[part * stride:(part + 1) * stride] or ranked[-1:]
            picks.append(rng.choice(bucket))
    return [query5(product) for product in picks]
