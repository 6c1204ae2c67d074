"""The browser side: one self-contained HTML page.

A deliberately small client -- exploration form on the left, community
view on the right, an analysis tab -- mirroring the Figure 1 / Figure 6
screens closely enough to demo every server endpoint without any
JavaScript framework.
"""

INDEX_HTML = """<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>C-Explorer</title>
<style>
 body { font-family: sans-serif; margin: 0; display: flex; }
 #left { width: 300px; padding: 16px; background: #f3f6f8;
         min-height: 100vh; }
 #right { flex: 1; padding: 16px; }
 h1 { font-size: 18px; } h2 { font-size: 15px; }
 label { display: block; margin-top: 10px; font-size: 13px; }
 input, select { width: 95%; padding: 4px; }
 button { margin-top: 12px; padding: 6px 18px; }
 #keywords span { display: inline-block; background: #dde7ee;
   margin: 2px; padding: 2px 7px; border-radius: 9px; font-size: 12px;
   cursor: pointer; }
 #keywords span.on { background: #4a90d9; color: white; }
 table { border-collapse: collapse; margin-top: 10px; }
 td, th { border: 1px solid #ccc; padding: 4px 10px; font-size: 13px; }
 #theme { color: #555; font-size: 13px; margin-top: 6px; }
 pre { background: #f7f7f7; padding: 8px; overflow-x: auto; }
</style>
</head>
<body>
<div id="left">
 <h1>C-Explorer</h1>
 <a href="#" onclick="show('explore')">Exploration</a> |
 <a href="#" onclick="show('analysis')">Analysis</a>
 <div id="panel-explore">
  <label>Name: <input id="name" value="jim gray"></label>
  <label>Structure: degree &ge;
    <input id="k" type="number" value="4" style="width:60px"></label>
  <label>Algorithm:
   <select id="algo"></select></label>
  <label>Keywords:</label>
  <div id="keywords"></div>
  <button onclick="search()">Search</button>
 </div>
 <div id="panel-analysis" style="display:none">
  <label>Name: <input id="aname" value="jim gray"></label>
  <label>degree &ge;
    <input id="ak" type="number" value="4" style="width:60px"></label>
  <button onclick="compare()">Compare</button>
 </div>
</div>
<div id="right">
 <div id="communities"></div>
 <div id="theme"></div>
 <div id="view"></div>
 <div id="analysis"></div>
</div>
<script>
// Every /v1 answer is {ok, data, error}: resolve with data, or report
// error.message and stop the chain.
function unwrap(r) {
  return r.json().then(function (d) {
    if (!d.ok) { alert(d.error.message); throw new Error(d.error.code); }
    return d.data;
  });
}
function api(path, params) {
  return fetch(path, {method: 'POST', body: JSON.stringify(params || {}),
                      headers: {'Content-Type': 'application/json'}})
         .then(unwrap);
}
function show(which) {
  document.getElementById('panel-explore').style.display =
    which === 'explore' ? '' : 'none';
  document.getElementById('panel-analysis').style.display =
    which === 'analysis' ? '' : 'none';
}
function loadAlgorithms() {
  fetch('/v1/algorithms').then(unwrap).then(function (d) {
    var sel = document.getElementById('algo');
    d.cs.forEach(function (name) {
      var o = document.createElement('option');
      o.value = name; o.textContent = name;
      if (name === 'acq') { o.selected = true; }
      sel.appendChild(o);
    });
  });
}
function loadKeywords() {
  api('/v1/options', {vertex: document.getElementById('name').value})
  .then(function (d) {
    var div = document.getElementById('keywords');
    div.innerHTML = '';
    (d.keywords || []).forEach(function (w) {
      var s = document.createElement('span');
      s.textContent = w; s.className = 'on';
      s.onclick = function () { s.classList.toggle('on'); };
      div.appendChild(s);
    });
  });
}
function selectedKeywords() {
  var out = [];
  document.querySelectorAll('#keywords span.on').forEach(function (s) {
    out.push(s.textContent);
  });
  return out.length ? out : null;
}
function search() {
  api('/v1/search', {
    vertex: document.getElementById('name').value,
    k: parseInt(document.getElementById('k').value, 10),
    algorithm: document.getElementById('algo').value,
    keywords: selectedKeywords()
  }).then(function (d) {
    var nav = document.getElementById('communities');
    nav.textContent = 'Communities: ';
    d.communities.forEach(function (c, i) {
      var a = document.createElement('a');
      a.href = '#'; a.textContent = (i + 1) + ' ';
      a.onclick = function () { view(i); return false; };
      nav.appendChild(a);
    });
    window._last = d;
    if (d.communities.length) { view(0); }
  });
}
function view(i) {
  var c = window._last.communities[i];
  document.getElementById('theme').textContent =
    c.theme.length ? 'Theme: ' + c.theme.join(', ') : '';
  api('/v1/display', {
    vertex: window._last.query.vertex, k: window._last.query.k,
    algorithm: window._last.query.algorithm,
    keywords: window._last.query.keywords, community: i
  }).then(function (d) {
    document.getElementById('view').innerHTML = d.svg;
  });
}
function compare() {
  api('/v1/compare', {
    vertex: document.getElementById('aname').value,
    k: parseInt(document.getElementById('ak').value, 10)
  }).then(function (d) {
    var rows = d.table.map(function (r) {
      return '<tr><td>' + [r.method, r.communities, r.vertices, r.edges,
        r.degree, r.cpj, r.cmf].join('</td><td>') + '</td></tr>';
    }).join('');
    document.getElementById('analysis').innerHTML =
      '<h2>Community Statistics</h2><table><tr><th>Method</th>' +
      '<th>Communities</th><th>Vertices</th><th>Edges</th>' +
      '<th>Degree</th><th>CPJ</th><th>CMF</th></tr>' + rows + '</table>';
  });
}
loadAlgorithms();
document.getElementById('name').onchange = loadKeywords;
loadKeywords();
</script>
</body>
</html>
"""
