-- TPC-H-lite: 16 join templates over the synthetic TPC-H star/snowflake
-- (catalog/tpch_schema.h). Shapes follow the classic TPC-H questions (Q3
-- order shipping, Q5 local supplier volume, Q7 bi-nation flows, Q12
-- shipmode, Q19 brand/quantity) restated as COUNT(*) joins. Dates are
-- YYYYMMDD integers in 1992..1998; prices are integer cents. Two variants
-- per family keep kLeaveOneOut splits family-covering. See docs/sql.md.

-- h1a
SELECT COUNT(*) FROM customer c, orders o, lineitem l
WHERE o.customer_id = c.id AND l.order_id = o.id
AND c.mktsegment = 'BUILDING' AND o.orderdate < 19950315
AND l.shipdate > 19950315;

-- h1b
SELECT COUNT(*) FROM customer c, orders o, lineitem l
WHERE o.customer_id = c.id AND l.order_id = o.id
AND c.mktsegment = 'MACHINERY' AND o.orderdate < 19970601
AND l.shipdate > 19970601;

-- h2a
SELECT COUNT(*) FROM region r, nation n, customer c, orders o, lineitem l,
supplier s
WHERE n.region_id = r.id AND c.nation_id = n.id AND o.customer_id = c.id
AND l.order_id = o.id AND l.supplier_id = s.id AND s.nation_id = n.id
AND r.name = 'ASIA' AND o.orderdate BETWEEN 19940101 AND 19941231;

-- h2b
SELECT COUNT(*) FROM region r, nation n, customer c, orders o, lineitem l,
supplier s
WHERE n.region_id = r.id AND c.nation_id = n.id AND o.customer_id = c.id
AND l.order_id = o.id AND l.supplier_id = s.id AND s.nation_id = n.id
AND r.name = 'EUROPE' AND o.orderdate BETWEEN 19960101 AND 19971231;

-- h3a
SELECT COUNT(*) FROM orders o, lineitem l
WHERE l.order_id = o.id
AND l.shipmode IN ('MAIL', 'SHIP') AND o.orderpriority = '1-URGENT'
AND l.shipdate BETWEEN 19940101 AND 19941231;

-- h3b
SELECT COUNT(*) FROM orders o, lineitem l
WHERE l.order_id = o.id
AND l.shipmode IN ('AIR', 'REG AIR') AND o.orderpriority = '5-LOW'
AND l.shipdate > 19970101;

-- h4a
SELECT COUNT(*) FROM part p, lineitem l, orders o
WHERE l.part_id = p.id AND l.order_id = o.id
AND p.brand = 'Brand#12' AND p.container IN ('SM CASE', 'SM BOX')
AND l.quantity BETWEEN 1 AND 11;

-- h4b
SELECT COUNT(*) FROM part p, lineitem l, orders o
WHERE l.part_id = p.id AND l.order_id = o.id
AND p.brand LIKE 'Brand#2%' AND p.container IN ('LG CASE', 'LG BOX')
AND l.quantity BETWEEN 20 AND 40;

-- h5a
SELECT COUNT(*) FROM partsupp ps, part p, supplier s, nation n, region r
WHERE ps.part_id = p.id AND ps.supplier_id = s.id AND s.nation_id = n.id
AND n.region_id = r.id
AND r.name = 'AMERICA' AND p.size = 15 AND p.type LIKE 'PROMO%';

-- h5b
SELECT COUNT(*) FROM partsupp ps, part p, supplier s, nation n, region r
WHERE ps.part_id = p.id AND ps.supplier_id = s.id AND s.nation_id = n.id
AND n.region_id = r.id
AND r.name = 'AFRICA' AND p.size BETWEEN 1 AND 10
AND p.type LIKE 'ECONOMY%';

-- h6a
SELECT COUNT(*) FROM customer c, orders o, lineitem l, nation n
WHERE o.customer_id = c.id AND l.order_id = o.id AND c.nation_id = n.id
AND l.returnflag = 'R' AND o.orderdate BETWEEN 19930701 AND 19930930;

-- h6b
SELECT COUNT(*) FROM customer c, orders o, lineitem l, nation n
WHERE o.customer_id = c.id AND l.order_id = o.id AND c.nation_id = n.id
AND l.returnflag = 'A' AND n.name = 'UNITED STATES'
AND o.orderdate > 19960101;

-- h7a
SELECT COUNT(*) FROM supplier s, lineitem l, orders o, customer c,
nation n1, nation n2
WHERE l.supplier_id = s.id AND l.order_id = o.id AND o.customer_id = c.id
AND s.nation_id = n1.id AND c.nation_id = n2.id
AND n1.name = 'FRANCE' AND n2.name = 'GERMANY'
AND l.shipdate BETWEEN 19950101 AND 19961231;

-- h7b
SELECT COUNT(*) FROM supplier s, lineitem l, orders o, customer c,
nation n1, nation n2
WHERE l.supplier_id = s.id AND l.order_id = o.id AND o.customer_id = c.id
AND s.nation_id = n1.id AND c.nation_id = n2.id
AND n1.name = 'CHINA' AND n2.name IN ('JAPAN', 'INDIA')
AND l.shipdate > 19960601;

-- h8a
SELECT COUNT(*) FROM region r, nation n, customer c, orders o, lineitem l,
supplier s, part p
WHERE n.region_id = r.id AND c.nation_id = n.id AND o.customer_id = c.id
AND l.order_id = o.id AND l.supplier_id = s.id AND l.part_id = p.id
AND r.name = 'AMERICA' AND p.type LIKE 'STANDARD%'
AND o.orderdate BETWEEN 19950101 AND 19961231;

-- h8b
SELECT COUNT(*) FROM region r, nation n, customer c, orders o, lineitem l,
supplier s, part p
WHERE n.region_id = r.id AND c.nation_id = n.id AND o.customer_id = c.id
AND l.order_id = o.id AND l.supplier_id = s.id AND l.part_id = p.id
AND r.name = 'MIDDLE EAST' AND p.brand = 'Brand#22'
AND o.orderdate > 19970101;

-- h9a
SELECT COUNT(*) FROM part p, partsupp ps, supplier s, lineitem l, orders o,
nation n
WHERE ps.part_id = p.id AND ps.supplier_id = s.id AND l.part_id = p.id
AND l.supplier_id = s.id AND l.order_id = o.id AND s.nation_id = n.id
AND p.brand LIKE 'Brand#1%' AND n.name = 'CANADA';

-- h9b
SELECT COUNT(*) FROM part p, partsupp ps, supplier s, lineitem l, orders o,
nation n
WHERE ps.part_id = p.id AND ps.supplier_id = s.id AND l.part_id = p.id
AND l.supplier_id = s.id AND l.order_id = o.id AND s.nation_id = n.id
AND p.type LIKE 'LARGE%' AND n.name IN ('BRAZIL', 'ARGENTINA', 'PERU')
AND o.orderdate > 19950101;

-- h10a
SELECT COUNT(*) FROM lineitem l, part p, supplier s
WHERE l.part_id = p.id AND l.supplier_id = s.id
AND p.container = 'JUMBO PKG' AND l.discount BETWEEN 5 AND 7
AND l.quantity < 25;

-- h10b
SELECT COUNT(*) FROM lineitem l, part p, supplier s
WHERE l.part_id = p.id AND l.supplier_id = s.id
AND p.container IN ('MED BOX', 'MED BAG') AND l.discount > 8
AND l.quantity >= 30;

-- h11a
SELECT COUNT(*) FROM partsupp ps, part p, supplier s, nation n
WHERE ps.part_id = p.id AND ps.supplier_id = s.id AND s.nation_id = n.id
AND n.name = 'GERMANY' AND ps.supplycost < 50000;

-- h11b
SELECT COUNT(*) FROM partsupp ps, part p, supplier s, nation n
WHERE ps.part_id = p.id AND ps.supplier_id = s.id AND s.nation_id = n.id
AND n.name IN ('RUSSIA', 'ROMANIA') AND ps.availqty > 5000
AND p.size > 25;

-- h12a
SELECT COUNT(*) FROM customer c, orders o, lineitem l, part p
WHERE o.customer_id = c.id AND l.order_id = o.id AND l.part_id = p.id
AND c.mktsegment = 'AUTOMOBILE' AND o.orderpriority = '2-HIGH'
AND p.brand = 'Brand#15';

-- h12b
SELECT COUNT(*) FROM customer c, orders o, lineitem l, part p
WHERE o.customer_id = c.id AND l.order_id = o.id AND l.part_id = p.id
AND c.mktsegment = 'HOUSEHOLD' AND o.orderpriority IN ('1-URGENT', '2-HIGH')
AND p.type LIKE 'MEDIUM%';

-- h13a
SELECT COUNT(*) FROM orders o, customer c, nation n, region r
WHERE o.customer_id = c.id AND c.nation_id = n.id AND n.region_id = r.id
AND r.name = 'EUROPE' AND o.orderstatus = 'F'
AND o.totalprice > 20000000;

-- h13b
SELECT COUNT(*) FROM orders o, customer c, nation n, region r
WHERE o.customer_id = c.id AND c.nation_id = n.id AND n.region_id = r.id
AND r.name = 'ASIA' AND o.orderstatus IN ('O', 'P')
AND o.orderdate > 19980101;

-- h14a
SELECT COUNT(*) FROM lineitem l, orders o, part p
WHERE l.order_id = o.id AND l.part_id = p.id
AND p.type LIKE 'PROMO%' AND l.shipdate BETWEEN 19950901 AND 19950930;

-- h14b
SELECT COUNT(*) FROM lineitem l, orders o, part p
WHERE l.order_id = o.id AND l.part_id = p.id
AND p.type LIKE 'SMALL%' AND l.shipdate BETWEEN 19970301 AND 19970630
AND l.linestatus = 'F';

-- h15a
SELECT COUNT(*) FROM lineitem l, supplier s, nation n, region r
WHERE l.supplier_id = s.id AND s.nation_id = n.id AND n.region_id = r.id
AND r.name = 'ASIA' AND l.shipdate BETWEEN 19960101 AND 19960331
AND l.shipmode = 'TRUCK';

-- h15b
SELECT COUNT(*) FROM lineitem l, supplier s, nation n, region r
WHERE l.supplier_id = s.id AND s.nation_id = n.id AND n.region_id = r.id
AND r.name = 'AFRICA' AND l.shipdate > 19971001
AND l.shipmode IN ('SHIP', 'FOB');

-- h16a
SELECT COUNT(*) FROM customer c, nation n, orders o, lineitem l, supplier s
WHERE c.nation_id = n.id AND o.customer_id = c.id AND l.order_id = o.id
AND l.supplier_id = s.id
AND c.acctbal > 500000 AND s.acctbal < 0
AND o.orderdate BETWEEN 19940101 AND 19951231;

-- h16b
SELECT COUNT(*) FROM customer c, nation n, orders o, lineitem l, supplier s
WHERE c.nation_id = n.id AND o.customer_id = c.id AND l.order_id = o.id
AND l.supplier_id = s.id
AND c.acctbal < 100000 AND s.acctbal > 800000
AND n.name = 'UNITED KINGDOM' AND o.orderdate > 19960101;
