#include "io/dataset_io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/set_ops.h"

namespace kcc {
namespace {

// Strips comments; returns false for blank lines.
bool prepare_line(std::string& line) {
  const auto hash = line.find('#');
  if (hash != std::string::npos) line.resize(hash);
  return line.find_first_not_of(" \t\r") != std::string::npos;
}

// Splits "a,b,c" into tokens. An empty item ("a,,b", "a,", ",") is an
// error naming `reader`, `line_no` and the whole field.
std::vector<std::string> split_csv(const std::string& s, const char* reader,
                                   std::size_t line_no) {
  std::vector<std::string> out;
  for (std::size_t start = 0;;) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    require(end > start, reader, " line ", line_no, ": empty item in '", s,
            "'");
    out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

// The whitespace-separated fields of one line, which must number exactly
// `expected`. `reader` and `line_no` locate the line in every error, and
// `shape` names the expected fields.
std::vector<std::string> fields_of(const std::string& line,
                                   std::size_t expected, const char* reader,
                                   std::size_t line_no, const char* shape) {
  std::vector<std::string> fields;
  std::istringstream ls(line);
  for (std::string field; ls >> field;) fields.push_back(std::move(field));
  const std::string_view extra =
      fields.size() > expected ? fields[expected] : std::string_view();
  require(fields.size() <= expected, reader, " line ", line_no,
          ": unexpected trailing token '", extra, "'");
  require(fields.size() == expected, reader, " line ", line_no,
          ": expected '", shape, "', got ", fields.size(), " field(s)");
  return fields;
}

// The node of AS label `token`: a plain decimal integer (no sign) that
// fits in 64 bits and labels a node of `g`.
NodeId node_of_token(const LabeledGraph& g, const std::string& token,
                     const char* reader, std::size_t line_no) {
  std::uint64_t label = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), label);
  require(ec != std::errc::result_out_of_range, reader, " line ", line_no,
          ": AS label '", token, "' is larger than 18446744073709551615");
  require(ec == std::errc() && ptr == token.data() + token.size(), reader,
          " line ", line_no, ": AS label '", token,
          "' is not a non-negative integer");
  require(std::binary_search(g.labels.begin(), g.labels.end(), label), reader,
          " line ", line_no, ": AS label '", token,
          "' is not a node of the graph");
  return g.node_of(label);
}

}  // namespace

IxpDataset read_ixp_dataset(std::istream& in, const LabeledGraph& g) {
  std::vector<Ixp> ixps;
  std::string line;
  std::size_t line_no = 0;
  constexpr const char* kReader = "read_ixp_dataset";
  while (std::getline(in, line)) {
    ++line_no;
    if (!prepare_line(line)) continue;
    std::vector<std::string> fields =
        fields_of(line, 3, kReader, line_no, "name country label,label,...");
    Ixp ixp;
    ixp.name = std::move(fields[0]);
    ixp.country = std::move(fields[1]);
    for (const std::string& token : split_csv(fields[2], kReader, line_no)) {
      ixp.participants.push_back(node_of_token(g, token, kReader, line_no));
    }
    sort_unique(ixp.participants);
    ixps.push_back(std::move(ixp));
  }
  return IxpDataset(std::move(ixps));
}

IxpDataset read_ixp_dataset_file(const std::string& path,
                                 const LabeledGraph& g) {
  std::ifstream in(path);
  require(in.good(), "read_ixp_dataset_file: cannot open '", path, "'");
  return read_ixp_dataset(in, g);
}

void write_ixp_dataset(std::ostream& out, const IxpDataset& ixps,
                       const LabeledGraph& g) {
  for (const Ixp& ixp : ixps.all()) {
    out << ixp.name << ' ' << ixp.country << ' ';
    for (std::size_t i = 0; i < ixp.participants.size(); ++i) {
      if (i > 0) out << ',';
      out << g.labels[ixp.participants[i]];
    }
    out << '\n';
  }
}

GeoDataset read_geo_dataset(std::istream& countries_in, std::istream& geo_in,
                            const LabeledGraph& g) {
  std::vector<Country> countries;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(countries_in, line)) {
    ++line_no;
    if (!prepare_line(line)) continue;
    std::vector<std::string> fields = fields_of(
        line, 2, "read_geo_dataset country", line_no, "code continent");
    countries.push_back({std::move(fields[0]), std::move(fields[1])});
  }

  // Temporary code -> id lookup.
  constexpr const char* kGeoReader = "read_geo_dataset geo";
  auto find_code = [&](const std::string& code) {
    CountryId id = 0;
    while (id < countries.size() && countries[id].code != code) ++id;
    require(id < countries.size(), kGeoReader, " line ", line_no,
            ": unknown country code '", code, "'");
    return id;
  };

  std::vector<std::vector<CountryId>> locations(g.graph.num_nodes());
  line_no = 0;
  while (std::getline(geo_in, line)) {
    ++line_no;
    if (!prepare_line(line)) continue;
    const std::vector<std::string> fields =
        fields_of(line, 2, kGeoReader, line_no, "label code,code,...");
    const NodeId v = node_of_token(g, fields[0], kGeoReader, line_no);
    for (const std::string& code : split_csv(fields[1], kGeoReader, line_no)) {
      locations[v].push_back(find_code(code));
    }
  }
  return GeoDataset(std::move(countries), std::move(locations));
}

GeoDataset read_geo_dataset_files(const std::string& countries_path,
                                  const std::string& geo_path,
                                  const LabeledGraph& g) {
  std::ifstream countries_in(countries_path);
  require(countries_in.good(),
          "read_geo_dataset_files: cannot open '", countries_path, "'");
  std::ifstream geo_in(geo_path);
  require(geo_in.good(),
          "read_geo_dataset_files: cannot open '", geo_path, "'");
  return read_geo_dataset(countries_in, geo_in, g);
}

void write_geo_dataset(std::ostream& countries_out, std::ostream& geo_out,
                       const GeoDataset& geo, const LabeledGraph& g) {
  for (const Country& country : geo.all_countries()) {
    countries_out << country.code << ' ' << country.continent << '\n';
  }
  for (NodeId v = 0; v < geo.node_capacity(); ++v) {
    const auto& locations = geo.locations_of(v);
    if (locations.empty()) continue;
    geo_out << g.labels[v] << ' ';
    for (std::size_t i = 0; i < locations.size(); ++i) {
      if (i > 0) geo_out << ',';
      geo_out << geo.country(locations[i]).code;
    }
    geo_out << '\n';
  }
}

}  // namespace kcc
